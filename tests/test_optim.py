import numpy as np
import pytest

from gedraft import autodiff as ad
from gedraft.autodiff import Tensor, backward
from gedraft.optim import Adam, grad_check


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


def test_adam_state_roundtrip():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    opt = Adam({"x": x}, lr=0.01)
    for _ in range(3):
        opt.zero_grad()
        backward(ad.reduce_sum(ad.mul(x, x)))
        opt.step()
    state = opt.state_dict()
    clone = Adam({"x": x}, lr=0.01)
    clone.load_state_dict(state)
    assert clone.step_count == 3
    assert np.array_equal(clone.m["x"], opt.m["x"])
    assert np.array_equal(clone.v["x"], opt.v["x"])


def test_adam_step_after_load_leaves_loaded_state_unchanged():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    opt = Adam({"x": x}, lr=0.01)
    backward(ad.reduce_sum(ad.mul(x, x)))
    opt.step()
    state = opt.state_dict()
    before = {key: state[key]["x"].copy() for key in ("m", "v")}
    clone = Adam({"x": x}, lr=0.01)
    clone.load_state_dict(state)
    for _ in range(3):
        clone.zero_grad()
        backward(ad.reduce_sum(ad.mul(x, x)))
        clone.step()
    assert not np.array_equal(clone.m["x"], before["m"])
    for key in ("m", "v"):
        assert state[key]["x"].tobytes() == before[key].tobytes()


@pytest.mark.parametrize(
    "bad",
    [
        {"m": {}, "v": {"x": np.zeros(2)}},
        {"m": {"x": np.zeros(2), "y": np.zeros(2)}, "v": {"x": np.zeros(2)}},
        {"m": {"x": np.zeros(2)}, "v": {"x": np.zeros(3)}},
        {"m": {"x": np.zeros((2, 1))}, "v": {"x": np.zeros(2)}},
    ],
)
def test_adam_load_refuses_mismatched_state(bad):
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    opt = Adam({"x": x})
    with pytest.raises(ValueError):
        opt.load_state_dict({"step": 4, **bad})
    assert opt.step_count == 0
    assert opt.m["x"].shape == (2,) and opt.v["x"].shape == (2,)


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
        out._parents = ((t, lambda g: g),)  # should be g * 2x
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
