import contextlib

import numpy as np
import pytest

import composed
from composed import gin_aggregate
from gedraft import autodiff as ad
from gedraft.autodiff import Tensor
from gedraft.encoder import (
    READOUTS,
    encode_graphs,
    enhanced_layer,
    init_encoder_params,
    pad_batch,
    readout,
)
from gedraft.graphs import SplitMix64, generate_er
from gedraft.model import ModelConfig
from graph_reference import permute

SIGMOID_TANH_1 = 0.6816997421945262  # sigmoid(tanh(1)), hand-derived


def config(readout_kind="gca", hidden=8, layers=2, alphabet=3):
    return ModelConfig(alphabet_size=alphabet, hidden=hidden, layers=layers, readout=readout_kind)


def make_params(readout_kind="gca", hidden=8, layers=2, alphabet=3, seed=0):
    rng = np.random.default_rng(seed)
    return init_encoder_params(rng, config(readout_kind, hidden, layers, alphabet))


def test_param_names_and_shapes():
    p = make_params("gca", hidden=8, layers=2)
    assert p["encoder.proj.W"].shape == (3, 8)
    assert p["encoder.layer1.eps"].shape == ()
    assert p["encoder.gca.W2"].shape == (8, 8)
    assert "encoder.gca.W3" not in p
    q = make_params("mean")
    assert not any(k.startswith("encoder.gca") for k in q)


def test_init_rejects_bad_args():
    # the config the encoder takes refuses them before a draw
    with pytest.raises(ValueError, match="layers"):
        make_params("mean", layers=0)
    with pytest.raises(ValueError, match="readout"):
        make_params("nope")


def test_gin_aggregate_example():
    # path graph 0-1-2 with scalar features [1, 2, 3], eps = 0.5
    x = Tensor(np.array([[1.0], [2.0], [3.0]]))
    a = Tensor(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))
    out = gin_aggregate(x, a, 0.5).values
    assert np.allclose(out[:, 0], [1.5 * 1 + 2, 1.5 * 2 + 4, 1.5 * 3 + 2])


def test_gin_aggregate_learnable_eps_gets_gradient():
    eps = Tensor(np.zeros(()), requires_grad=True)
    x = Tensor(np.ones((3, 2)))
    a = Tensor(np.zeros((3, 3)))
    ad.backward(ad.reduce_sum(gin_aggregate(x, a, eps)))
    assert float(eps.grad) == 6.0


def test_gca_closed_form():
    # two identical unit feature vectors with identity weight:
    # context = tanh(mean) = tanh(1), score = sigmoid(tanh(1)) per node,
    # pooled = 2 * sigmoid(tanh(1)) in the active dimension
    x = np.array([[[1.0, 0.0], [1.0, 0.0]]])
    w = Tensor(np.eye(2))
    out = readout(Tensor(x), "gca", w, np.ones((1, 2, 1))).values[0]
    assert out[0] == pytest.approx(2 * SIGMOID_TANH_1, abs=1e-15)
    assert out[1] == 0.0


def test_simple_readouts():
    x = Tensor(np.array([[[1.0, 4.0], [3.0, 2.0]]]))
    mask = np.ones((1, 2, 1))
    assert np.array_equal(readout(x, "mean", None, mask).values, [[2.0, 3.0]])
    assert np.array_equal(readout(x, "max", None, mask).values, [[3.0, 4.0]])
    assert np.array_equal(readout(x, "sum", None, mask).values, [[4.0, 6.0]])
    with pytest.raises(ValueError):
        readout(x, "gca", None, mask)  # needs its weight
    with pytest.raises(ValueError):
        readout(x, "median", None, mask)


@pytest.mark.parametrize("kind", READOUTS)
def test_readouts_read_batched_features_only(kind):
    w = Tensor(np.eye(2))
    with pytest.raises(ad.ShapeError):
        readout(Tensor(np.ones((2, 2))), kind, w, np.ones((2, 1)))


@pytest.mark.parametrize("kind", READOUTS)
def test_permutation_invariance(kind):
    params = make_params(kind)
    rng = SplitMix64(123)
    for trial in range(10):
        g = generate_er(4 + trial % 4, 0.5, 3, seed=trial, gid="g")
        pi = list(range(g.n))
        rng.shuffle(pi)
        a = encode_graphs([g], params, config(kind))
        b = encode_graphs([permute(g, pi)], params, config(kind))
        for sa, sb in zip(a, b):
            assert np.allclose(sa.values, sb.values, rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("kind", READOUTS)
def test_batched_encoding_matches_single(kind):
    params = make_params(kind)
    graphs = [generate_er(3 + t % 4, 0.5, 3, seed=50 + t, gid=f"g{t}") for t in range(9)]
    batched = encode_graphs(graphs, params, config(kind))
    for i, g in enumerate(graphs):
        single = encode_graphs([g], params, config(kind))
        for k in range(3):
            assert np.allclose(batched[k].values[i], single[k].values[0], atol=1e-12)


def test_scale_count():
    params = make_params("mean", layers=3)
    g = generate_er(5, 0.5, 3, seed=1, gid="g")
    scales = encode_graphs([g], params, config("mean", layers=3))
    assert len(scales) == 4
    assert all(s.shape == (1, 8) for s in scales)


def test_label_outside_alphabet_rejected():
    params = make_params("mean")
    g = generate_er(4, 0.5, 3, seed=1, gid="g")
    with pytest.raises(ValueError):
        encode_graphs([g], params, config("mean", alphabet=2))


def test_gradients_flow_to_all_encoder_params():
    params = make_params("gca")
    graphs = [generate_er(4 + t, 0.5, 3, seed=t, gid=f"g{t}") for t in range(3)]
    scales = encode_graphs(graphs, params, config("gca"))
    loss = ad.reduce_sum(ad.concat(scales, axis=-1))
    ad.backward(loss)
    for name, t in params.items():
        assert t.grad is not None, name


@pytest.mark.parametrize("kind", READOUTS)
def test_padding_leaves_a_graph_encoding_unchanged(kind):
    params = make_params(kind)
    small = generate_er(3, 0.6, 3, seed=7, gid="small")
    large = generate_er(7, 0.5, 3, seed=8, gid="large")
    alone = encode_graphs([small], params, config(kind))
    for batch, row in (([small, large], 0), ([large, small], 1)):
        padded = encode_graphs(batch, params, config(kind))
        for s_alone, s_padded in zip(alone, padded):
            assert np.allclose(s_padded.values[row], s_alone.values[0], rtol=0, atol=1e-12)


def test_max_readout_ignores_padding_of_negative_features():
    # padded rows hold zeros, above every real feature, so a mask that adds
    # 0 instead of -inf would read them as the maximum
    x = np.array([[[-1.0, -4.0], [-3.0, -0.5], [0.0, 0.0]],
                  [[-2.0, -1.0], [-5.0, -6.0], [-7.0, -0.25]]])
    mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])[:, :, None]
    padded = readout(Tensor(x), "max", None, mask).values
    alone = readout(Tensor(x[:1, :2]), "max", None, np.ones((1, 2, 1))).values
    assert np.array_equal(padded[0], alone[0])
    assert np.array_equal(padded[0], [-1.0, -0.5])
    assert np.array_equal(padded[1], [-2.0, -0.25])


@pytest.mark.parametrize("kind", READOUTS)
def test_mixed_size_batch_gradients_are_sums_of_per_graph_gradients(kind):
    params = make_params(kind)
    graphs = [generate_er(n, 0.5, 3, seed=20 + n, gid=f"g{n}") for n in (3, 6, 4)]
    weights = np.random.default_rng(1).normal(size=(len(graphs), 3, 8))

    def grads(batch, rows):
        for t in params.values():
            t.zero_grad()
        scales = encode_graphs(batch, params, config(kind))
        terms = [ad.mul(s, Tensor(weights[rows, k])) for k, s in enumerate(scales)]
        ad.backward(ad.reduce_sum(ad.concat(terms, axis=-1)))
        return {name: t.grad for name, t in params.items()}

    batched = grads(graphs, [0, 1, 2])
    per_graph = [grads([g], [i]) for i, g in enumerate(graphs)]
    for name, g in batched.items():
        assert np.allclose(g, sum(p[name] for p in per_graph), rtol=0, atol=1e-12), name


def padded_batch(hidden=8, seed=4):
    """Features, adjacency and mask of a padded batch with a 1-node graph."""
    graphs = [generate_er(n, 0.6, 3, seed=seed + n, gid=f"g{n}") for n in (5, 1, 3)]
    _, adjacency, mask = pad_batch(graphs, 3)
    x = np.random.default_rng(seed).normal(size=(3, 5, hidden)) * mask
    return x, adjacency, mask


def test_fused_enhanced_layer_matches_composed_bit_for_bit():
    x0, adjacency, _ = padded_batch()
    params = make_params("gca")
    names = sorted(n for n in params if n.startswith("encoder.layer1."))
    results = []
    for layer in (enhanced_layer, composed.enhanced_layer):
        x = Tensor(x0.copy(), requires_grad=True)
        p = {n: Tensor(params[n].values + 0.1, requires_grad=True) for n in names}
        results.append(composed.run_with_grads(
            lambda x, *ts: layer(x, adjacency, dict(zip(names, ts)), "encoder.layer1"),
            [x, *(p[n] for n in names)],
        ))
    assert results[0] == results[1]


def test_fused_gca_readout_matches_composed_bit_for_bit():
    x0, _, mask = padded_batch()
    w0 = make_params("gca")["encoder.gca.W0"].values
    results = [
        composed.run_with_grads(
            lambda x, w: read(x, "gca", w, mask),
            [Tensor(x0.copy(), requires_grad=True), Tensor(w0.copy(), requires_grad=True)],
        )
        for read in (readout, composed.readout)
    ]
    assert results[0] == results[1]


@pytest.mark.parametrize("kind", READOUTS)
def test_fused_encoder_matches_composed_bit_for_bit(kind):
    # the layer's and the readout's contributions to a layer's input meet in
    # one sum, whose order the fused nodes must keep
    graphs = [generate_er(n, 0.6, 3, seed=30 + n, gid=f"g{n}") for n in (5, 1, 3, 6)]
    results = []
    for blocks in (contextlib.nullcontext, composed.composed_model):
        params = make_params(kind, layers=3)
        with blocks():
            scales = encode_graphs(graphs, params, config(kind, layers=3))
            out = ad.concat(scales, axis=-1)
            ad.backward(ad.reduce_sum(ad.mul(ad.tanh(out), Tensor(np.ones(out.shape) / 3))))
        results.append([out.values.tobytes()] + [params[n].grad.tobytes() for n in sorted(params)])
    assert results[0] == results[1]
