import numpy as np
import pytest

import composed
from gedraft import autodiff as ad
from gedraft import optim
from gedraft.autodiff import Tensor, backward
from gedraft.model import ModelConfig
from gedraft.optim import Adam, grad_check, numpy_step
from gedraft.training import TrainConfig, train


def test_adam_minimizes_quadratic():
    x = Tensor(np.array([5.0, -3.0]), requires_grad=True)
    opt = Adam({"x": x}, lr=0.05)
    for _ in range(500):
        opt.zero_grad()
        backward(ad.reduce_sum(ad.mul(x, x)))
        opt.step()
    assert np.abs(x.values).max() < 1e-3


def test_adam_first_step_size_is_lr():
    # with bias correction the first update has magnitude lr * sign(grad)
    x = Tensor(np.array([2.0]), requires_grad=True)
    opt = Adam({"x": x}, lr=0.1)
    backward(ad.reduce_sum(ad.mul(x, x)))
    opt.step()
    assert x.values[0] == pytest.approx(2.0 - 0.1, abs=1e-6)


def test_adam_skips_params_without_grad():
    x = Tensor(np.array([1.0]), requires_grad=True)
    y = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam({"x": x, "y": y}, lr=0.1)
    backward(ad.reduce_sum(ad.mul(x, x)))
    opt.step()
    assert y.values[0] == 1.0


class AllocatingAdam:
    """The allocating Adam step that Adam.step replaced, kept as the
    reference its in-place arithmetic must match bit for bit."""

    def __init__(self, params, lr, beta1, beta2, eps):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step_count = 0
        self.m = {k: np.zeros(p.shape) for k, p in params.items()}
        self.v = {k: np.zeros(p.shape) for k, p in params.items()}

    def step(self):
        self.step_count += 1
        t = self.step_count
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            m_hat = self.m[name] / (1 - self.beta1**t)
            v_hat = self.v[name] / (1 - self.beta2**t)
            p.values -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def test_adam_step_bit_identical_to_allocating_reference():
    shapes = {"scalar": (), "vector": (7,), "matrix": (4, 5), "sometimes": (3,)}
    rng = np.random.default_rng(11)
    start = {k: rng.normal(size=s) for k, s in shapes.items()}
    hyper = dict(lr=0.0137, beta1=0.83, beta2=0.9911, eps=3e-7)
    ours = {k: Tensor(v.copy(), requires_grad=True) for k, v in start.items()}
    ref = {k: Tensor(v.copy(), requires_grad=True) for k, v in start.items()}
    opt = Adam(ours, **hyper)
    ref_opt = AllocatingAdam(ref, **hyper)
    tiny = np.finfo(np.float64).smallest_subnormal
    for step in range(300):
        for k, shape in shapes.items():
            if k == "sometimes" and step % 3 == 1:
                g = None
            else:
                g = rng.normal(scale=10.0 ** rng.integers(-8, 3), size=shape)
                flat = g.reshape(-1)
                flat[rng.random(flat.size) < 0.2] = -0.0
                flat[rng.random(flat.size) < 0.2] = tiny * rng.integers(-9, 10)
                if step % 50 == 0:
                    flat[:] = -0.0
            ours[k].grad = None if g is None else g.copy()
            ref[k].grad = None if g is None else g.copy()
        opt.step()
        ref_opt.step()
    for k in shapes:
        assert ours[k].values.tobytes() == ref[k].values.tobytes(), k
        assert np.asarray(opt.m[k]).tobytes() == np.asarray(ref_opt.m[k]).tobytes(), k
        assert np.asarray(opt.v[k]).tobytes() == np.asarray(ref_opt.v[k]).tobytes(), k
    assert opt.step_count == ref_opt.step_count == 300


@pytest.fixture(params=["c", "numpy"])
def kernel_step(request):
    """Each Adam step function: the compiled one and the NumPy one."""
    if request.param == "numpy":
        return numpy_step
    return request.getfixturevalue("c_adam").step


def test_suite_runs_the_compiled_adam_step(c_adam):
    assert optim.BACKEND == "c"
    assert optim._step is c_adam.step


def test_adam_kernels_leave_the_same_bits(c_adam):
    # sizes around and across the vector width, and a 0-d parameter; the
    # gradients mix scales, signed zeros and subnormals
    rng = np.random.default_rng(5)
    shapes = [(), (1,), (2,), (3,), (5, 7), (64, 33), (1000,)]
    tiny = np.finfo(np.float64).smallest_subnormal
    start = [rng.normal(size=s) for s in shapes]
    sides = {
        step: ([x.copy() for x in start], [np.zeros(s) for s in shapes],
               [np.zeros(s) for s in shapes])
        for step in (c_adam.step, numpy_step)
    }
    hyper = (0.0137, 0.83, 0.9911, 3e-7)
    for t in range(1, 60):
        grads = []
        for s in shapes:
            g = rng.normal(scale=10.0 ** rng.integers(-8, 3), size=s)
            flat = g.reshape(-1)
            flat[rng.random(flat.size) < 0.2] = -0.0
            flat[rng.random(flat.size) < 0.2] = tiny * rng.integers(-9, 10)
            grads.append(None if t % 7 == 3 and s == (3,) else g)
        c1, c2 = 1 - hyper[1] ** t, 1 - hyper[2] ** t
        for step, (values, ms, vs) in sides.items():
            step(values, grads, ms, vs, *hyper, c1, c2)
    for ours, theirs in zip(*sides.values()):
        for a, b in zip(ours, theirs):
            assert a.tobytes() == b.tobytes()


def _refused_entries():
    """(name, operands of the second entry) that each kernel must refuse."""
    f = lambda *s: np.ones(s)  # noqa: E731
    readonly = f(2, 3)
    readonly.flags.writeable = False
    shared = f(2, 3)
    return [
        ("float32 gradient", (f(2, 3), np.ones((2, 3), np.float32), f(2, 3), f(2, 3))),
        ("int parameter", (np.ones((2, 3), np.int64), f(2, 3), f(2, 3), f(2, 3))),
        ("non-contiguous parameter", (f(3, 2).T, f(2, 3), f(2, 3), f(2, 3))),
        ("strided gradient", (f(2, 3), f(2, 6)[:, ::2], f(2, 3), f(2, 3))),
        ("size mismatch", (f(2, 3), f(2, 3), f(7), f(2, 3))),
        ("same size, other shape", (f(2, 3), f(3, 2), f(2, 3), f(2, 3))),
        ("read-only v", (f(2, 3), f(2, 3), f(2, 3), readonly)),
        ("m is the parameter", (shared, f(2, 3), shared, f(2, 3))),
    ]


@pytest.mark.parametrize("case", _refused_entries(), ids=lambda c: c[0])
def test_adam_kernels_refuse_bad_operands_before_writing(kernel_step, case):
    _, second = case
    first = (np.full(4, 2.0), np.full(4, 0.5), np.zeros(4), np.zeros(4))
    entries = [first, second]
    before = [[np.array(a, copy=True).tobytes() for a in e] for e in entries]
    values, grads, ms, vs = (list(ops) for ops in zip(*entries))
    with pytest.raises(ValueError, match="entry 1"):
        kernel_step(values, grads, ms, vs, 0.1, 0.9, 0.999, 1e-8, 0.1, 0.001)
    after = [[np.asarray(a).tobytes() for a in e] for e in entries]
    assert after == before


def test_adam_kernels_refuse_sequences_of_different_lengths(kernel_step):
    x = np.ones(3)
    with pytest.raises(ValueError):
        kernel_step([x], [np.ones(3)], [np.zeros(3)], [], 0.1, 0.9, 0.999, 1e-8, 0.1, 0.001)
    assert x.tolist() == [1.0, 1.0, 1.0]


def test_refused_adam_step_changes_nothing(kernel_step, monkeypatch):
    monkeypatch.setattr(optim, "_step", kernel_step)
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    opt = Adam({"x": x, "y": y}, lr=0.1)
    backward(ad.reduce_sum(ad.mul(x, x)))
    opt.step()
    moments = {k: (opt.m[k].tobytes(), opt.v[k].tobytes()) for k in ("x", "y")}
    values = (x.values.tobytes(), y.values.tobytes())
    backward(ad.reduce_sum(ad.mul(x, x)))
    y.grad = np.ones(2, dtype=np.float32)
    with pytest.raises(ValueError):
        opt.step()
    assert opt.step_count == 1
    assert (x.values.tobytes(), y.values.tobytes()) == values
    assert {k: (opt.m[k].tobytes(), opt.v[k].tobytes()) for k in ("x", "y")} == moments


def test_adam_steps_a_leaf_used_through_a_transpose(kernel_step, monkeypatch):
    # swapaxes hands the leaf a transposed gradient; backward stores it in
    # C order, so the compiled step takes it
    monkeypatch.setattr(optim, "_step", kernel_step)
    start = np.arange(1.0, 7.0).reshape(2, 3)
    w = Tensor(start.copy(), requires_grad=True)
    opt = Adam({"w": w}, lr=0.1)
    backward(ad.reduce_sum(ad.matmul(Tensor(np.ones((1, 3))), composed.swapaxes(w, 0, 1))))
    assert w.grad.flags.c_contiguous
    opt.step()
    # a first step moves each coordinate by lr against its gradient's sign
    assert np.allclose(w.values, start - 0.1)


def test_training_bits_do_not_depend_on_the_adam_kernel(tiny_dataset, c_adam, monkeypatch):
    # the diffatt model has the 0-d parameter fusion.log_t, whose gradient
    # backward leaves as a NumPy scalar
    cfg = ModelConfig(alphabet_size=len(tiny_dataset.alphabet), hidden=8, layers=2)
    tcfg = TrainConfig(epochs=2, batch_size=16, validations=2)
    results = {}
    for name, kernel in (("c", c_adam.step), ("numpy", numpy_step)):
        monkeypatch.setattr(optim, "_step", kernel)
        results[name] = train(cfg, tcfg, tiny_dataset)
    (best_c, hist_c), (best_np, hist_np) = results["c"], results["numpy"]
    assert best_c["fusion.log_t"].values.shape == ()
    assert best_c["fusion.log_t"].values != 0.0
    assert best_c.keys() == best_np.keys()
    for k in best_c:
        assert best_c[k].values.tobytes() == best_np[k].values.tobytes(), k
    assert hist_c == hist_np


def test_zero_grad():
    x = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam({"x": x})
    backward(ad.reduce_sum(x))
    assert x.grad is not None
    opt.zero_grad()
    assert x.grad is None


def test_grad_check_passes_on_correct_gradient():
    x = Tensor(np.array([0.3, -0.7, 1.2]), requires_grad=True)
    assert grad_check(lambda x: ad.reduce_sum(ad.tanh(x)), [x]) < 1e-8


def test_grad_check_catches_wrong_gradient():
    x = Tensor(np.array([0.5, 1.5]), requires_grad=True)

    def wrong_square(t):
        out = ad.Tensor(t.values**2)
        out.requires_grad = True
        out._parents = (t,)
        out._backward = lambda g: [g]  # should be g * 2x
        return out

    err = grad_check(lambda t: ad.reduce_sum(wrong_square(t)), [x])
    assert err > 1e-2


def test_grad_check_requires_grad_inputs():
    x = Tensor(np.array([1.0]))
    with pytest.raises(ValueError):
        grad_check(lambda t: ad.reduce_sum(t), [x])


def test_grad_check_requires_scalar_output():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with pytest.raises(ValueError):
        grad_check(lambda t: t, [x])
