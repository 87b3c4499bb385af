"""Adam optimizer and central-difference gradient checking."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, backward


class Adam:
    """Standard Adam with bias correction over a dict of named tensors.

    ``step`` updates ``m``, ``v`` and the parameters' values in place,
    through two scratch arrays per parameter allocated here, so a step
    allocates nothing. It performs the floating-point operations of the
    textbook expressions in their order, so its results are bit-identical
    to them. ``state_dict`` returns copies, and ``load_state_dict`` copies
    what it is given.
    """

    def __init__(self, params: dict, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {k: np.zeros(p.shape) for k, p in self.params.items()}
        self.v = {k: np.zeros(p.shape) for k, p in self.params.items()}
        # arrays of each parameter's shape, never scalars: a 0-d parameter's
        # products would otherwise be NumPy scalars, which cannot take out=
        self._scratch = {
            k: (np.empty(p.shape), np.empty(p.shape)) for k, p in self.params.items()
        }

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        self.step_count += 1
        t = self.step_count
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        c1, c2 = 1 - b1**t, 1 - b2**t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m, v = self.m[name], self.v[name]
            s, d = self._scratch[name]
            # m = b1 * m + (1 - b1) * g
            m *= b1
            np.multiply(g, 1 - b1, out=s)
            m += s
            # v = b2 * v + ((1 - b2) * g) * g
            v *= b2
            np.multiply(g, 1 - b2, out=s)
            s *= g
            v += s
            # values -= (m / c1) * lr / (sqrt(v / c2) + eps)
            np.divide(m, c1, out=s)
            s *= lr
            np.divide(v, c2, out=d)
            np.sqrt(d, out=d)
            d += eps
            s /= d
            p.values -= s

    def state_dict(self):
        return {
            "step": self.step_count,
            "m": {k: v.copy() for k, v in self.m.items()},
            "v": {k: v.copy() for k, v in self.v.items()},
        }

    def load_state_dict(self, state):
        """Copy ``state`` in; ValueError if its moments do not match the
        parameters by name and shape."""
        moments = {}
        for key in ("m", "v"):
            given = {k: np.array(a, dtype=np.float64) for k, a in state[key].items()}
            if given.keys() != self.params.keys():
                raise ValueError(
                    f"optimizer state {key!r} names {sorted(given)} "
                    f"differ from the parameters' {sorted(self.params)}"
                )
            for k, a in given.items():
                if a.shape != self.params[k].shape:
                    raise ValueError(
                        f"optimizer state {key}[{k!r}] has shape {a.shape}, "
                        f"the parameter {self.params[k].shape}"
                    )
            moments[key] = given
        self.step_count = state["step"]
        self.m, self.v = moments["m"], moments["v"]


def grad_check(f, inputs, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps the input tensors to a scalar Tensor; every input must have
    requires_grad set. Relative error per coordinate is
    |analytic - numeric| / max(1, |numeric|).
    """
    inputs = list(inputs)
    for x in inputs:
        if not x.requires_grad:
            raise ValueError("all grad_check inputs must require grad")
        x.zero_grad()
    loss = f(*inputs)
    if loss.shape != ():
        raise ValueError("grad_check target must be scalar-valued")
    backward(loss)
    # the finite differences run on constants sharing the inputs' values,
    # so they build no tape
    consts = [Tensor(x.values) for x in inputs]
    worst = 0.0
    for x in inputs:
        analytic = np.zeros(x.shape) if x.grad is None else x.grad
        flat = x.values.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = float(f(*consts).values)
            flat[k] = orig - h
            down = float(f(*consts).values)
            flat[k] = orig
            numeric = (up - down) / (2 * h)
            if not np.isfinite(numeric):
                raise FloatingPointError(
                    f"non-finite finite-difference value at coordinate {k}"
                )
            err = abs(analytic.reshape(-1)[k] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst
