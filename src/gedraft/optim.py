"""Adam optimizer and central-difference gradient checking."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, backward


def _check_operands(values, grads, ms, vs):
    """ValueError unless every operand of an entry with a gradient is
    float64, C-contiguous, of its parameter's shape, writable unless it is
    the gradient, and apart from the entry's other operands: the checks of
    the compiled step, through the same buffer protocol."""
    if not len(values) == len(grads) == len(ms) == len(vs):
        raise ValueError("step takes four sequences of the same length")
    for i, entry in enumerate(zip(values, grads, ms, vs)):
        if entry[1] is None:
            continue
        views = [memoryview(a) for a in entry]
        for k, (what, view) in enumerate(zip(("parameter", "gradient", "m", "v"), views)):
            problem = None
            if view.format != "d" or view.itemsize != 8:
                problem = "is not float64"
            elif not view.c_contiguous:
                problem = "is not C-contiguous"
            elif what != "gradient" and view.readonly:
                problem = "is read-only"
            elif view.shape != views[0].shape:
                problem = "does not have the parameter's shape"
            elif any(np.may_share_memory(entry[k], entry[j]) for j in range(k)):
                problem = "overlaps another operand"
            if problem:
                raise ValueError(f"entry {i}: the {what} {problem}")


def numpy_step(values, grads, ms, vs, lr, beta1, beta2, eps, c1, c2):
    """One Adam step in place, over equal-length sequences of parameter,
    gradient, ``m`` and ``v`` arrays; entries whose gradient is None are
    skipped. ``c1`` and ``c2`` are the bias corrections ``1 - beta**t``.

    It performs the floating-point operations of Adam's textbook
    expressions in their order, so its results are bit-identical to them.
    This is the step of builds without the compiled ``_adam.step``, which
    takes the same arguments, leaves the same bits, and refuses the same
    operands, with ValueError before anything is written.
    """
    _check_operands(values, grads, ms, vs)
    for x, g, m, v in zip(values, grads, ms, vs):
        if g is None:
            continue
        # arrays of the parameter's shape, never scalars: a 0-d parameter's
        # products would otherwise be NumPy scalars, which cannot take out=
        s, d = np.empty(m.shape), np.empty(m.shape)
        # m = b1 * m + (1 - b1) * g
        m *= beta1
        np.multiply(g, 1 - beta1, out=s)
        m += s
        # v = b2 * v + ((1 - b2) * g) * g
        v *= beta2
        np.multiply(g, 1 - beta2, out=s)
        s *= g
        v += s
        # values -= (m / c1) * lr / (sqrt(v / c2) + eps)
        np.divide(m, c1, out=s)
        s *= lr
        np.divide(v, c2, out=d)
        np.sqrt(d, out=d)
        d += eps
        s /= d
        x -= s


try:
    from ._adam import step as _step

    BACKEND = "c"
except ImportError:  # built without a C compiler
    _step = numpy_step
    BACKEND = "numpy"


class Adam:
    """Standard Adam with bias correction over a dict of named tensors.

    ``step`` updates ``m``, ``v`` and the parameters' values in place, in one
    call to the compiled ``_adam.step`` or, in a build without it, to
    ``numpy_step`` (``BACKEND`` is ``"c"`` or ``"numpy"``). Both leave the
    bits of the textbook expressions. A refused step (see ``numpy_step``)
    changes nothing, ``step_count`` included. ``state_dict`` returns copies,
    and ``load_state_dict`` copies what it is given.
    """

    def __init__(self, params: dict, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        # m and v keep the parameters' order, which step relies on
        self.m = {k: np.zeros(p.shape) for k, p in self.params.items()}
        self.v = {k: np.zeros(p.shape) for k, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        t = self.step_count + 1
        params = self.params.values()
        _step(
            [p.values for p in params],
            [p.grad for p in params],
            list(self.m.values()),
            list(self.v.values()),
            self.lr,
            self.beta1,
            self.beta2,
            self.eps,
            1 - self.beta1**t,
            1 - self.beta2**t,
        )
        self.step_count = t

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
            given = {k: np.array(a, dtype=np.float64, order="C") for k, a in state[key].items()}
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
            moments[key] = {k: given[k] for k in self.params}
        self.step_count = state["step"]
        self.m, self.v = moments["m"], moments["v"]


GRAD_CHECK_STEP = 1e-5  # the central difference's step h


def grad_check(f, inputs) -> float:
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
    h = GRAD_CHECK_STEP
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
