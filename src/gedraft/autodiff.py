"""Minimal dense-tensor reverse-mode differentiation engine.

Double precision throughout. The operator set is exactly what the model
needs: elementwise add, sub and mul, matmul on operands of 2+ dimensions,
reshape, concat, row gather, abs, relu, tanh and sigmoid, sum over axes,
max over one axis, and MSE loss. A model block that would otherwise record
many of these nodes is one node instead: it computes its value and all of
its gradients in NumPy (a dense relu MLP, ``dense``; the encoder layer, the
gca readout and difference attention, which run their MLPs through
``dense_values``).

Broadcasting is limited to bias addition over the last axis and leading
batch dimensions in matmul/elementwise ops; gradients of broadcast
operands are summed back to their shape. Anything else is a shape error.

Every op, elementary or block, records itself with one call,
``node(values, inputs, grads)``: ``grads(g)`` returns the contribution to
each input, in order. The tape is the ``_parents`` links of op outputs. A
node records only the inputs that require a gradient (a leaf made with
``requires_grad=True``, or an op output that recorded a parent), so
constants are never on the tape and an op on constants alone records
nothing, not even its backward function: passing parameters as
``Tensor(t.values)`` runs the model without building a tape. ``backward``
walks the recorded links and accumulates ``.grad`` on the leaves that
require a gradient.
"""

from __future__ import annotations

import math

import numpy as np


class ShapeError(ValueError):
    pass


def _check_broadcast(sa, sb):
    try:
        return np.broadcast_shapes(sa, sb)
    except ValueError:
        raise ShapeError(f"incompatible shapes {sa} and {sb}")


def unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum grad over the axes that were broadcast to reach ``shape``; grad
    itself when it has that shape."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("values", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, values, requires_grad=False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()  # the operands that require a gradient
        self._backward = None  # g -> their contributions, in that order

    @property
    def shape(self):
        return self.values.shape

    @property
    def ndim(self):
        return self.values.ndim

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def node(values, inputs, grads) -> Tensor:
    """The output of an op on ``inputs``: ``grads(g)`` returns the op's
    contributions to ``inputs``, in order, in one pass. It is on the tape
    when an input requires a gradient, and its ``_backward`` hands out the
    contributions of those inputs only.

    An input the op reads in several places is listed once per
    contribution, in the order its composed ops would hand them to it;
    ``backward`` then adds them in that order, so the sums keep their bits.
    """
    recorded = [k for k, t in enumerate(inputs) if t.requires_grad]
    out = Tensor(values, requires_grad=bool(recorded))
    if recorded:
        out._parents = tuple(inputs[k] for k in recorded)

        def backward_fn(g):
            contributions = grads(g)
            return [contributions[k] for k in recorded]

        out._backward = backward_fn
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into .grad of the reachable leaves that
    require a gradient."""
    if loss.shape != ():
        raise ShapeError(f"backward root must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    order: list[Tensor] = []
    seen = set()

    def visit(t: Tensor):
        stack = [(t, iter(t._parents))]
        seen.add(id(t))
        while stack:
            node, it = stack[-1]
            advanced = False
            for parent in it:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append((parent, iter(parent._parents)))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()

    visit(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones(())}
    for node in reversed(order):
        g = grads.pop(id(node))
        if not node._parents:
            # g + 0.0 has the bits of zeros + g (-0.0 becomes +0.0) in one
            # fresh array, so leaves that were handed the same g never share;
            # C order, which the compiled Adam step requires, whatever g's is
            if node.grad is None:
                node.grad = np.add(g, 0.0, order="C")
            else:
                node.grad = np.add(node.grad, g, order="C")
            continue
        for parent, contrib in zip(node._parents, node._backward(g)):
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + contrib
            else:
                grads[key] = contrib


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a.shape, b.shape)
    return node(a.values + b.values, [a, b],
                lambda g: (unbroadcast(g, a.shape), unbroadcast(g, b.shape)))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a.shape, b.shape)
    return node(a.values - b.values, [a, b],
                lambda g: (unbroadcast(g, a.shape), unbroadcast(-g, b.shape)))


def mul(a, b) -> Tensor:
    """Hadamard product (scalar operands broadcast)."""
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a.shape, b.shape)
    return node(a.values * b.values, [a, b],
                lambda g: (unbroadcast(g * b.values, a.shape), unbroadcast(g * a.values, b.shape)))


# ---------------------------------------------------------------------------
# linear algebra and shaping


def matmul_grad_left(g: np.ndarray, b: np.ndarray, shape) -> np.ndarray:
    """The gradient of a, of shape ``shape``, in a @ b given g for a @ b."""
    return unbroadcast(np.matmul(g, np.swapaxes(b, -1, -2)), shape)


def matmul_grad_right(a: np.ndarray, g: np.ndarray, shape) -> np.ndarray:
    """The gradient of b, of shape ``shape``, in a @ b given g for a @ b."""
    return unbroadcast(np.matmul(np.swapaxes(a, -1, -2), g), shape)


def matmul(a, b) -> Tensor:
    """Batched matrix product; both operands have 2 or more dimensions."""
    a, b = as_tensor(a), as_tensor(b)
    av, bv = a.values, b.values
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs 2-D or batched operands, got {a.shape} and {b.shape}")
    try:
        values = np.matmul(av, bv)
    except ValueError:
        raise ShapeError(f"matmul shapes {a.shape} and {b.shape} incompatible")
    return node(values, [a, b],
                lambda g: (matmul_grad_left(g, bv, a.shape), matmul_grad_right(av, g, b.shape)))


def dense_values(x: np.ndarray, layers, need_x: bool):
    """x @ W1 + b1 -> relu -> ... -> @ Wk + bk over arrays, for the
    (W, b) pairs of ``layers``: the output, and ``grads(g)``, which returns
    the contributions to x, W1, b1, W2, ... in that order (x's is None
    unless ``need_x``). Each expression is the composed matmul, add and
    relu ops', so values and gradients keep their bits."""
    inputs = []
    for k, (w, b) in enumerate(layers):
        if k:
            x = x * (x > 0)
        inputs.append(x)
        x = np.matmul(x, w) + b

    def grads(g):
        out = []
        for k in reversed(range(len(layers))):
            (w, b), a = layers[k], inputs[k]
            out[:0] = [matmul_grad_right(a, g, w.shape), unbroadcast(g, b.shape)]
            if k:
                # relu passes g where its output, and so its input, is > 0
                g = matmul_grad_left(g, w, a.shape) * (a > 0)
        g_x = matmul_grad_left(g, layers[0][0], inputs[0].shape) if need_x else None
        return [g_x, *out]

    return x, grads


def dense(x, layers) -> Tensor:
    """``dense_values`` over tensors as one node: ``layers`` holds (W, b)
    tensor pairs, x is 2-D or batched. A constant x gets no gradient."""
    x = as_tensor(x)
    if x.ndim < 2:
        raise ShapeError(f"dense needs 2-D or batched input, got {x.shape}")
    out, grads = dense_values(x.values, [(w.values, b.values) for w, b in layers],
                              x.requires_grad)
    return node(out, [x, *(t for layer in layers for t in layer)], grads)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)
    return node(a.values.reshape(shape), [a], lambda g: (g.reshape(a.shape),))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    values = np.concatenate([t.values for t in tensors], axis=axis)
    ends = np.cumsum([t.shape[axis] for t in tensors[:-1]])
    return node(values, tensors, lambda g: np.split(g, ends, axis=axis))


def index_rows(a, idx) -> Tensor:
    """Gather rows along axis 0; gradient scatter-adds back.

    The scatter is a weighted bincount over flat indices: like
    ``np.add.at`` into zeros, it adds each row's gradients from +0.0 in the
    order the rows were gathered, so it gives the same bits.
    """
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)

    def grads(g):
        width = math.prod(a.shape[1:])
        flat = ((idx % a.shape[0])[:, None] * width + np.arange(width)).ravel()
        return (np.bincount(flat, weights=g.ravel(), minlength=a.values.size).reshape(a.shape),)

    return node(a.values[idx], [a], grads)


# ---------------------------------------------------------------------------
# nonlinearities


def absolute(a) -> Tensor:
    """Elementwise |x| with subgradient 0 at 0."""
    a = as_tensor(a)
    return node(np.abs(a.values), [a], lambda g: (g * np.sign(a.values),))


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.values > 0
    return node(a.values * mask, [a], lambda g: (g * mask,))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.values)
    return node(out, [a], lambda g: (g * (1.0 - out * out),))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = 1.0 / (1.0 + np.exp(-a.values))
    return node(out, [a], lambda g: (g * out * (1.0 - out),))


# ---------------------------------------------------------------------------
# reductions and loss


def _axis_tuple(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(a % ndim for a in axis)


def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    axes = _axis_tuple(axis, a.ndim)

    def grads(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, a.shape).copy(),)

    return node(a.values.sum(axis=axes, keepdims=keepdims), [a], grads)


def reduce_max(a, axis: int) -> Tensor:
    """Max over one axis; the gradient flows to the first maximal index."""
    a = as_tensor(a)
    axes = _axis_tuple(axis, a.ndim)
    if len(axes) != 1:
        raise ShapeError("reduce_max supports a single axis")
    ax = axes[0]
    idx = np.argmax(a.values, axis=ax)
    out = a.values.max(axis=ax)

    def grads(g):
        res = np.zeros(a.shape)
        np.put_along_axis(res, np.expand_dims(idx, ax), np.expand_dims(g, ax), axis=ax)
        return (res,)

    return node(out, [a], grads)


def mse_loss(pred, target) -> Tensor:
    pred, target = as_tensor(pred), as_tensor(target)
    if pred.shape != target.shape:
        raise ShapeError(f"mse_loss shapes differ: {pred.shape} vs {target.shape}")
    diff = pred.values - target.values
    n = diff.size if diff.size else 1
    return node(np.asarray((diff * diff).mean() if diff.size else 0.0), [pred, target],
                lambda g: (g * 2.0 * diff / n, -g * 2.0 * diff / n))
