import numpy as np
import pytest

import composed
from gedraft import autodiff as ad
from gedraft.autodiff import ShapeError, Tensor, backward
from gedraft.cli import _gradcheck_cases
from gedraft.encoder import init_mlp, mlp
from gedraft.graphs import generate_er
from gedraft.model import ModelConfig, batch_loss, init_params
from gedraft.optim import grad_check

TOL = 1e-4


def _cases():
    # the CLI's operators and one-node blocks, and the composed reference's ops
    return {**_gradcheck_cases(), **composed.gradcheck_cases()}


@pytest.mark.parametrize("name", sorted(_cases()))
def test_operator_gradcheck(name):
    f, inputs = _cases()[name]
    assert grad_check(f, inputs) < TOL


def test_backward_requires_scalar_root():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        backward(ad.mul(x, x))


def test_grad_accumulates_over_reuse():
    x = Tensor(np.array(3.0), requires_grad=True)
    y = ad.add(ad.mul(x, x), x)  # x^2 + x, dy/dx = 2x + 1
    backward(y)
    assert float(x.grad) == 7.0


def test_grad_accumulates_over_multiple_backwards():
    x = Tensor(np.array(2.0), requires_grad=True)
    backward(ad.mul(x, x))
    backward(ad.mul(x, x))
    assert float(x.grad) == 8.0


def test_leaves_given_the_same_upstream_grad_do_not_share_it():
    p1 = Tensor(np.arange(3.0), requires_grad=True)
    p2 = Tensor(np.ones(3), requires_grad=True)
    backward(ad.reduce_sum(ad.tanh(ad.add(p1, p2))))
    assert np.array_equal(p1.grad, p2.grad)
    assert p1.grad is not p2.grad
    p1.grad *= 2.0
    assert not np.array_equal(p1.grad, p2.grad)


def test_two_backwards_accumulate_to_zeros_plus_grads():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=2), requires_grad=True)

    def loss():
        return ad.reduce_sum(ad.tanh(ad.dense(x, [(w, b)])))

    firsts = []
    for _ in range(2):
        for t in (x, w, b):
            t.zero_grad()
        backward(loss())
        firsts.append([t.grad.copy() for t in (x, w, b)])
    for t in (x, w, b):
        t.zero_grad()
    backward(loss())
    backward(loss())
    for t, g1, g2 in zip((x, w, b), *firsts):
        expected = (np.zeros(t.shape) + g1) + g2
        assert t.grad.tobytes() == expected.tobytes()


def test_leaf_grad_of_negative_zero_is_positive_zero():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    s = Tensor(np.array(0.0), requires_grad=True)
    # d/dx of sum(x * -0.0) is -0.0 everywhere, as is d/ds of s * -0.0
    backward(ad.add(ad.reduce_sum(ad.mul(x, Tensor(np.full(3, -0.0)))), ad.mul(s, Tensor(-0.0))))
    expected = np.zeros(3) + np.full(3, -0.0)
    assert x.grad.tobytes() == expected.tobytes() == np.zeros(3).tobytes()
    assert not np.signbit(x.grad).any()
    assert not np.signbit(s.grad)


def test_bias_broadcast_unbroadcasts_gradient():
    x = Tensor(np.ones((4, 3)), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    backward(ad.reduce_sum(ad.add(x, b)))
    assert b.grad.shape == (3,)
    assert np.array_equal(b.grad, np.full(3, 4.0))


def test_batched_matmul_broadcast_gradient():
    a = Tensor(np.random.default_rng(0).normal(size=(5, 3, 4)), requires_grad=True)
    w = Tensor(np.random.default_rng(1).normal(size=(4, 2)), requires_grad=True)
    assert grad_check(lambda a, w: ad.reduce_sum(ad.tanh(ad.matmul(a, w))), [a, w]) < TOL


def test_incompatible_shapes_raise():
    with pytest.raises(ShapeError):
        ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError):
        ad.mse_loss(Tensor(np.ones(3)), Tensor(np.ones(4)))
    with pytest.raises(ShapeError):
        composed.layer_norm(Tensor(np.ones((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(3)))


def test_abs_subgradient_zero_at_zero():
    x = Tensor(np.array([0.0, -2.0, 3.0]), requires_grad=True)
    backward(ad.reduce_sum(ad.absolute(x)))
    assert np.array_equal(x.grad, [0.0, -1.0, 1.0])


def test_reduce_max_routes_gradient_to_first_argmax():
    x = Tensor(np.array([[1.0, 5.0, 5.0], [7.0, 2.0, 7.0]]), requires_grad=True)
    backward(ad.reduce_sum(ad.reduce_max(x, axis=1)))
    assert np.array_equal(x.grad, [[0, 1, 0], [1, 0, 0]])


def test_softmax_temperature_limits():
    logits = Tensor(np.array([2.0, 1.0, 0.0]))
    hot = composed.softmax_with_temperature(logits, 1e-6).values
    assert hot[0] == pytest.approx(1.0, abs=1e-9)
    cold = composed.softmax_with_temperature(logits, 1e6).values
    assert np.allclose(cold, 1 / 3, atol=1e-6)
    with pytest.raises(ValueError):
        composed.softmax_with_temperature(logits, 0.0)


def test_softmax_rows_sum_to_one():
    x = Tensor(np.random.default_rng(3).normal(size=(4, 6)) * 30)
    s = composed.softmax_with_temperature(x, 0.5, axis=-1).values
    assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-12)
    assert (s > 0).all()


def test_layer_norm_statistics():
    x = Tensor(np.random.default_rng(5).normal(size=(7, 9)) * 4 + 2)
    out = composed.layer_norm(x, Tensor(np.ones(9)), Tensor(np.zeros(9))).values
    assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-12)
    assert np.allclose(out.var(axis=-1), 1.0, atol=1e-4)  # eps-limited


def test_index_rows_gather_and_scatter():
    x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    out = ad.index_rows(x, [2, 0, 2])
    assert np.array_equal(out.values, x.values[[2, 0, 2]])
    backward(ad.reduce_sum(out))
    assert np.array_equal(x.grad, [[1, 1, 1], [0, 0, 0], [2, 2, 2], [0, 0, 0]])


@pytest.mark.parametrize("shape", [(5, 3), (5,), (5, 2, 2)])
def test_index_rows_scatter_matches_add_at_bit_for_bit(shape):
    # row 3 sums four gradients whose total depends on the order, row 0
    # only -0.0s, rows 1 and 4 none; index -2 is row 3
    idx = [3, 0, 3, 2, 0, 3, -2]
    g = np.random.default_rng(2).normal(size=(len(idx),) + shape[1:]) * 1e16
    g[1] = g[4] = -0.0
    g[0] = -g[2]
    x = Tensor(np.zeros(shape), requires_grad=True)
    backward(ad.reduce_sum(ad.mul(ad.index_rows(x, idx), Tensor(g))))
    expected = np.zeros(shape)
    np.add.at(expected, idx, g)
    assert x.grad.tobytes() == expected.tobytes()


def test_concat_gradient_splits():
    a = Tensor(np.ones(2), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    backward(ad.reduce_sum(ad.mul(ad.concat([a, b]), Tensor(2.0))))
    assert np.array_equal(a.grad, [2, 2])
    assert np.array_equal(b.grad, [2, 2, 2])
    # three parts on the last axis of 3-D input, the middle one constant:
    # each recorded part is handed its own slice of g, bit for bit
    rng = np.random.default_rng(4)
    x, c, y = (Tensor(rng.normal(size=(2, 3, w)), requires_grad=grad)
               for w, grad in ((2, True), (4, False), (3, True)))
    out = ad.concat([x, c, y], axis=-1)
    assert out._parents == (x, y)
    g = rng.normal(size=(2, 3, 9))
    g[0, 0, 1] = -0.0
    parts = list(out._backward(g))
    assert [p.tobytes() for p in parts] == [g[..., :2].tobytes(), g[..., 6:].tobytes()]
    assert [p.shape for p in parts] == [x.shape, y.shape]


BINARY_OPS = {
    # op, shapes of its two operands; the elementwise ones broadcast
    "add": (ad.add, (3, 4), (4,)),
    "sub": (ad.sub, (3, 4), (1, 4)),
    "mul": (ad.mul, (2, 3, 4), (3, 1)),
    "matmul": (ad.matmul, (2, 3, 4), (4, 5)),
    "mse_loss": (ad.mse_loss, (3, 4), (3, 4)),
    "concat": (lambda a, b: ad.concat([a, b], axis=1), (3, 2), (3, 5)),
}


@pytest.mark.parametrize("constant", [0, 1])
@pytest.mark.parametrize("name", sorted(BINARY_OPS))
def test_constant_operand_is_not_recorded(name, constant):
    # the node records the other operand alone and hands it exactly one
    # contribution: the bits it gets when both operands require a gradient
    op, *shapes = BINARY_OPS[name]
    rng = np.random.default_rng(len(name))
    values = [rng.normal(size=shape) for shape in shapes]
    both = op(*(Tensor(v, requires_grad=True) for v in values))
    g = rng.normal(size=both.shape)
    expected = list(both._backward(g))[1 - constant]
    operands = [Tensor(v, requires_grad=k != constant) for k, v in enumerate(values)]
    out = op(*operands)
    assert out._parents == (operands[1 - constant],)
    contributions = list(out._backward(g))
    assert len(contributions) == 1
    assert contributions[0].shape == operands[1 - constant].shape
    assert contributions[0].tobytes() == expected.tobytes()


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("x_shape", [(6, 4), (3, 6, 4)])
@pytest.mark.parametrize("x_grad", [False, True])
def test_dense_equals_composed_chain_bit_for_bit(depth, x_shape, x_grad):
    # against add(matmul(x, W), b) with a relu between layers; zeros among
    # the pre-activations, and a negative zero in x, put the relu kink and
    # signed zeros on both paths
    rng = np.random.default_rng(depth)
    widths = (4, 5, 3, 2)[: depth + 1]
    x0 = rng.normal(size=x_shape)
    x0[..., 0, 0] = -0.0
    layers0 = [(rng.normal(size=(a, b)), rng.normal(size=b)) for a, b in zip(widths, widths[1:])]
    layers0[0][1][:] = 0.0
    layers0[0][0][:, 1] = 0.0
    upstream = Tensor(rng.normal(size=x_shape[:-1] + (widths[-1],)))
    results = []
    for op in (ad.dense, composed.dense):
        x = Tensor(x0.copy(), requires_grad=x_grad)
        layers = [(Tensor(w.copy(), requires_grad=True), Tensor(b.copy(), requires_grad=True))
                  for w, b in layers0]
        out = op(x, layers)
        backward(ad.reduce_sum(ad.mul(out, upstream)))
        arrays = [out.values] + [t.grad for t in (x, *(t for layer in layers for t in layer))]
        results.append([a if a is None else (a.shape, a.tobytes()) for a in arrays])
    assert results[0] == results[1]
    assert (results[0][1] is None) != x_grad


def test_removed_unbatched_forms_raise():
    vec, mat = Tensor(np.ones(3)), Tensor(np.ones((3, 3)))
    for a, b in ((vec, mat), (mat, vec), (vec, vec)):
        with pytest.raises(ShapeError):
            ad.matmul(a, b)
    with pytest.raises(ShapeError):
        ad.dense(vec, [(mat, Tensor(np.zeros(3)))])
    for axis in (None, (0, 1)):
        with pytest.raises(ShapeError):
            ad.reduce_max(mat, axis=axis)


def test_detach_blocks_gradient():
    # a constant over a tensor's values (``model.frozen``) starts no tape
    x = Tensor(np.array(2.0), requires_grad=True)
    y = ad.mul(Tensor(x.values), Tensor(np.array(3.0)))
    assert not y.requires_grad and not y._parents


def test_constant_leaves_get_no_grad():
    c = Tensor(np.ones(3))
    x = Tensor(np.ones(3), requires_grad=True)
    backward(ad.reduce_sum(ad.mul(c, x)))
    assert c.grad is None


def test_ops_on_constants_record_no_tape():
    c1, c2 = Tensor(np.ones((2, 3))), Tensor(np.full((3, 2), 2.0))
    out = ad.tanh(ad.dense(c1, [(c2, Tensor(np.zeros(2)))]))
    assert not out.requires_grad and out._parents == ()
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    mixed = ad.mul(c1, x)
    assert mixed.requires_grad and mixed._parents == (x,)


def test_nodes_on_constants_keep_no_backward_function():
    # a backward function over constants would keep their block's
    # intermediates alive for as long as the output lives
    c = Tensor(np.ones((2, 3)))
    elementary = ad.relu(c)
    block = ad.node(np.zeros(()), [c, c], lambda g: [g, g])
    for out in (elementary, block):
        assert not out.requires_grad and out._parents == () and out._backward is None


def test_backward_of_a_constant_root_does_nothing():
    c = Tensor(np.ones(3))
    loss = ad.reduce_sum(ad.mul(c, c))
    backward(loss)
    assert c.grad is None and loss.grad is None


def test_only_leaves_get_grad():
    x = Tensor(np.ones(3), requires_grad=True)
    y = ad.mul(x, Tensor(2.0))
    backward(ad.reduce_sum(y))
    assert np.array_equal(x.grad, [2.0, 2.0, 2.0])
    assert y.grad is None


def test_mse_loss_value():
    loss = ad.mse_loss(Tensor(np.array([1.0, 2.0])), Tensor(np.array([0.0, 4.0])))
    assert float(loss.values) == 2.5


def tape_nodes(loss):
    seen, stack, ops = {id(loss)}, [loss], 0
    while stack:
        node = stack.pop()
        ops += bool(node._parents)
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return ops


def test_one_training_step_records_19_tape_nodes():
    # the model shape of the train-eval benchmark: the projection, each
    # encoder layer, gca readout, difference attention and the regressor is
    # one node, so the tape holds the projection, 2 layers, 3 readouts, 6
    # row gathers, 3 attentions, the concat, the regressor, its reshape and
    # the loss. A block recomposed from elementary ops would add dozens.
    cfg = ModelConfig(alphabet_size=3, hidden=32, layers=2, readout="gca", fusion="diffatt")
    graphs = [generate_er(n, 0.5, 3, seed=n, gid=f"g{n}") for n in (1, 4, 6, 5)]
    loss = batch_loss([(graphs[0], graphs[1]), (graphs[2], graphs[3])], [0.5, 0.2],
                      init_params(cfg), cfg)
    assert tape_nodes(loss) == 19


def test_one_probe_step_records_2_tape_nodes():
    # resat_probe's step: the three-layer probe MLP, then the loss
    rng = np.random.default_rng(0)
    p = init_mlp(rng, (6, 12, 12, 4), "probe")
    loss = ad.mse_loss(mlp(Tensor(rng.normal(size=(8, 6))), p, "probe", 3),
                       Tensor(rng.normal(size=(8, 4))))
    assert tape_nodes(loss) == 2


def test_node_adds_repeated_inputs_in_list_order():
    # three contributions to x whose sum depends on the order of addition
    x = Tensor(np.zeros(()), requires_grad=True)
    parts = [np.array(1e16), np.array(1.0), np.array(-1e16)]
    backward(ad.node(np.zeros(()), [x, x, x], lambda g: parts))
    assert float(x.grad) == (1e16 + 1.0) - 1e16


def test_node_hands_each_recorded_input_its_own_entry():
    # the constants' entries are skipped, not handed to the next input
    x, y, c = (Tensor(np.zeros(()), requires_grad=True), Tensor(np.zeros(()), requires_grad=True),
               Tensor(np.zeros(())))
    parts = [np.array(1.0), np.array(10.0), np.array(100.0), np.array(1000.0)]
    backward(ad.node(np.zeros(()), [c, x, c, y], lambda g: parts))
    assert (float(x.grad), float(y.grad)) == (10.0, 1000.0)


def test_deep_graph_backward_is_iterative():
    x = Tensor(np.array(1.0), requires_grad=True)
    y = x
    for _ in range(5000):
        y = ad.add(y, x)
    backward(y)  # must not hit the recursion limit
    assert float(x.grad) == 5001.0
