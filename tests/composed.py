"""The model blocks as composed autodiff ops: the reference the one-node
blocks are compared with, bit for bit.

``dense``, ``enhanced_layer``, ``readout`` and ``diffatt_pair`` build each
block from one tape node per elementary op. The one-node blocks in
``gedraft.autodiff``, ``gedraft.encoder`` and ``gedraft.fusion`` must give
the same values and the same gradients, to the bit; ``composed_model``
swaps these in for them, so a whole model can run either way. The
elementary ops that only the blocks used live here too, with their
gradient checks; like gedraft's own, each records itself with
``autodiff.node``.
"""

from __future__ import annotations

import contextlib

import numpy as np

from gedraft import autodiff as ad
from gedraft import encoder, fusion
from gedraft.autodiff import ShapeError, Tensor, as_tensor, node

# ---------------------------------------------------------------------------
# elementary ops


def scalar_mul(a, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)
    return node(a.values * c, [a], lambda g: (g * c,))


def swapaxes(a, ax1: int, ax2: int) -> Tensor:
    a = as_tensor(a)
    return node(np.swapaxes(a.values, ax1, ax2), [a], lambda g: (np.swapaxes(g, ax1, ax2),))


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.values)
    return node(out, [a], lambda g: (g * out,))


def softmax_with_temperature(a, t: float = 1.0, axis: int = -1) -> Tensor:
    """softmax(x / t) along an axis; t must be a positive constant.

    A learnable temperature is handled upstream by scaling the logits with
    exp(-theta) before a t=1 softmax.
    """
    a = as_tensor(a)
    t = float(t)
    if t <= 0:
        raise ValueError(f"temperature must be > 0, got {t}")
    z = a.values / t
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)

    def grads(g):
        inner = (g * s).sum(axis=axis, keepdims=True)
        return ((g - inner) * s / t,)

    return node(s, [a], grads)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply a learnable affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} "
            f"do not match feature dim {d}"
        )
    mu = x.values.mean(axis=-1, keepdims=True)
    var = x.values.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.values - mu) * inv
    out = xhat * gain.values + bias.values

    lead = tuple(range(x.ndim - 1))

    def grads(g):
        dxhat = g * gain.values
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        return (dxhat - m1 - xhat * m2) * inv, (g * xhat).sum(axis=lead), g.sum(axis=lead)

    return node(out, [x, gain, bias], grads)


def gradcheck_cases():
    """Gradient-check cases, in ``cli._gradcheck_cases``' form, for the
    elementary ops above."""
    rng = np.random.default_rng(7)

    def t(shape):
        return Tensor(rng.uniform(-1.5, 1.5, shape), requires_grad=True)

    fixed = Tensor(rng.uniform(-1, 1, (5,)))
    fixed2 = Tensor(rng.uniform(-1, 1, (3, 6)))
    return {
        "scalar_mul": (lambda a: ad.reduce_sum(scalar_mul(a, -2.5)), [t((3, 4))]),
        "exp": (lambda a: ad.reduce_sum(exp(a)), [t((4,))]),
        "softmax": (
            lambda a: ad.reduce_sum(ad.mul(softmax_with_temperature(a, 0.7), fixed)),
            [t((5,))],
        ),
        "layer_norm": (
            lambda x, g, b: ad.reduce_sum(ad.mul(layer_norm(x, g, b), fixed2)),
            [t((3, 6)), t((6,)), t((6,))],
        ),
    }


# ---------------------------------------------------------------------------
# the blocks


def dense(x, layers) -> Tensor:
    """x @ W1 + b1 -> relu -> ... -> @ Wk + bk over the (W, b) pairs."""
    for k, (w, b) in enumerate(layers):
        if k:
            x = ad.relu(x)
        x = ad.add(ad.matmul(x, w), b)
    return x


def mlp(x, params: dict, prefix: str, depth: int) -> Tensor:
    """``encoder.mlp`` on the composed ``dense``."""
    return dense(x, [(params[f"{prefix}.W{k}"], params[f"{prefix}.b{k}"])
                     for k in range(1, depth + 1)])


def gin_aggregate(x, adjacency, eps) -> Tensor:
    """(1 + eps) * x_i + sum of neighbor features.

    x is (n, h) or batched (B, n, h) with adjacency (n, n) / (B, n, n);
    eps may be a float or a scalar Tensor.
    """
    x = ad.as_tensor(x)
    adjacency = ad.as_tensor(adjacency)
    if x.shape[:-1] != adjacency.shape[:-1]:
        raise ad.ShapeError(
            f"adjacency shape {adjacency.shape} does not match features {x.shape}"
        )
    scale = ad.add(eps, Tensor(1.0)) if isinstance(eps, Tensor) else float(1 + eps)
    self_term = ad.mul(x, scale) if isinstance(scale, Tensor) else scalar_mul(x, scale)
    return ad.add(self_term, ad.matmul(adjacency, x))


def enhanced_layer(x, adjacency, params: dict, prefix: str) -> Tensor:
    """x + GIN(x) through a feed-forward block: FFN(x + GIN(x))."""
    agg = gin_aggregate(x, adjacency, params[f"{prefix}.eps"])
    lin = dense(agg, [(params[f"{prefix}.gin.W"], params[f"{prefix}.gin.b"])])
    gin = ad.relu(
        layer_norm(lin, params[f"{prefix}.gin.ln.gain"], params[f"{prefix}.gin.ln.bias"])
    )
    return mlp(ad.add(x, gin), params, f"{prefix}.ffn", 2)


_fused_readout = encoder.readout


def readout(x, kind: str, weight, mask) -> Tensor:
    """``encoder.readout`` with the gca branch composed."""
    if kind != "gca":
        return _fused_readout(x, kind, weight, mask)
    x = ad.as_tensor(x)
    mean_weights = Tensor(mask / mask.sum(axis=1, keepdims=True))
    mean = ad.reduce_sum(ad.mul(x, mean_weights), axis=1)
    context = ad.tanh(ad.matmul(mean, weight))
    b, _, h = x.shape
    scores = ad.sigmoid(ad.matmul(x, ad.reshape(context, (b, h, 1))))  # (B,n,1)
    out = ad.matmul(swapaxes(ad.mul(scores, Tensor(mask)), 1, 2), x)  # (B,1,h)
    return ad.reshape(out, (b, h))


def diffatt_pair(h_i, h_j, params: dict, temperature="learnable"):
    """([u_i, u_j], alpha) of difference attention."""
    h_diff = mlp(ad.absolute(ad.sub(h_i, h_j)), params, "fusion.mlp", 2)
    if temperature == "learnable":
        scaled = ad.mul(h_diff, exp(scalar_mul(params["fusion.log_t"], -1.0)))
        alpha = softmax_with_temperature(scaled, 1.0, axis=-1)
    else:
        alpha = softmax_with_temperature(h_diff, float(temperature), axis=-1)
    u_i, u_j = ad.mul(alpha, h_i), ad.mul(alpha, h_j)
    return ad.concat([u_i, u_j], axis=-1), alpha.values


@contextlib.contextmanager
def composed_model():
    """Run the model on the composed blocks until the block exits."""
    saved = ad.dense, encoder.enhanced_layer, encoder.readout, fusion.diffatt_pair
    ad.dense, encoder.enhanced_layer, encoder.readout, fusion.diffatt_pair = (
        dense, enhanced_layer, readout, diffatt_pair
    )
    try:
        yield
    finally:
        ad.dense, encoder.enhanced_layer, encoder.readout, fusion.diffatt_pair = saved


def run_with_grads(f, inputs):
    """f(*inputs) and the gradient it gives each input, as bytes."""
    for t in inputs:
        t.zero_grad()
    out = f(*inputs)
    weights = Tensor(np.random.default_rng(0).normal(size=out.shape))
    ad.backward(ad.reduce_sum(ad.mul(out, weights)))
    return [out.values.tobytes()] + [t.grad.tobytes() for t in inputs]
