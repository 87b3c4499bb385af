"""Adam optimizer and central-difference gradient checking."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, backward


class Adam:
    """Standard Adam with bias correction over a dict of named tensors."""

    def __init__(self, params: dict, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {k: np.zeros(p.shape) for k, p in self.params.items()}
        self.v = {k: np.zeros(p.shape) for k, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

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

    def state_dict(self):
        return {
            "step": self.step_count,
            "m": {k: v.copy() for k, v in self.m.items()},
            "v": {k: v.copy() for k, v in self.v.items()},
        }

    def load_state_dict(self, state):
        self.step_count = state["step"]
        self.m = {k: np.asarray(v, dtype=np.float64) for k, v in state["m"].items()}
        self.v = {k: np.asarray(v, dtype=np.float64) for k, v in state["v"].items()}


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
