"""Graph-level fusion modules.

All functions operate on batched graph vectors (B, hidden) and return the
per-scale fused representation. One parameter set is shared across scales.

Variants: difference attention (diffatt), bilinear tensor fusion (ntn),
gated fusion (efn), element-wise absolute/squared distance, and plain
concatenation (none). Difference attention is one fused autodiff node
(``diffatt_pair``), bit for bit the composed elementary ops; the other
variants are composed.
"""

from __future__ import annotations

import sys

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import init_mlp, mlp, xavier_uniform

VARIANTS = ("diffatt", "ntn", "efn", "abs", "square", "none")


def check_options(temperature="learnable", ntn_slices: int = 16, efn_reduction: int = 4) -> None:
    """ValueError unless the temperature is "learnable" or finite and
    positive, and ntn_slices and efn_reduction are at least 1."""
    # a JSON integer can lie beyond the largest double, so no float() here
    if temperature != "learnable" and not 0 < temperature <= sys.float_info.max:
        raise ValueError(
            f"temperature must be 'learnable' or finite and positive, got {temperature}"
        )
    if ntn_slices < 1 or efn_reduction < 1:
        raise ValueError("ntn_slices and efn_reduction must be >= 1")


def init_fusion_params(
    rng: np.random.Generator,
    variant: str,
    hidden: int,
    temperature="learnable",
    ntn_slices: int = 16,
    efn_reduction: int = 4,
) -> dict:
    check_options(temperature, ntn_slices, efn_reduction)
    p: dict[str, Tensor] = {}

    def param(name, values):
        p[name] = Tensor(values, requires_grad=True)

    if variant == "diffatt":
        p.update(init_mlp(rng, (hidden, hidden, hidden), "fusion.mlp"))
        if temperature == "learnable":
            # t = exp(log_t) keeps the temperature positive; init t = 1
            param("fusion.log_t", np.zeros(()))
    elif variant == "ntn":
        for s in range(ntn_slices):
            param(f"fusion.ntn.W{s}", xavier_uniform(rng, hidden, hidden, (hidden, hidden)))
        param("fusion.ntn.V", xavier_uniform(rng, 2 * hidden, ntn_slices, (2 * hidden, ntn_slices)))
        param("fusion.ntn.b", np.zeros(ntn_slices))
    elif variant == "efn":
        wide = 2 * hidden
        narrow = max(1, wide // efn_reduction)
        param("fusion.efn.Wd", xavier_uniform(rng, wide, narrow, (wide, narrow)))
        param("fusion.efn.Wu", xavier_uniform(rng, narrow, wide, (narrow, wide)))
        p.update(init_mlp(rng, (wide, wide, wide), "fusion.efn.mlp"))
    elif variant in ("abs", "square", "none"):
        pass
    else:
        raise ValueError(f"unknown fusion variant {variant!r}")
    return p


def per_scale_width(variant: str, hidden: int, ntn_slices: int = 16) -> int:
    if variant in ("diffatt", "efn", "none"):
        return 2 * hidden
    if variant == "ntn":
        return ntn_slices
    if variant in ("abs", "square"):
        return hidden
    raise ValueError(f"unknown fusion variant {variant!r}")


def diffatt_pair(h_i, h_j, params: dict, temperature="learnable") -> tuple[Tensor, np.ndarray]:
    """Difference attention as one tape node: ([u_i, u_j], alpha).

    alpha = softmax(MLP(|h_i - h_j|) / t) rescales both embeddings
    element-wise, u = alpha * h; with a learnable temperature
    t = exp(log_t). The value and the gradients are those of the composed
    ops (sub, abs, linear, relu, exp, mul, softmax, concat) bit for bit:
    each expression is theirs, in their order.
    """
    check_options(temperature)
    h_i, h_j = ad.as_tensor(h_i), ad.as_tensor(h_j)
    names = ["fusion.mlp.W1", "fusion.mlp.b1", "fusion.mlp.W2", "fusion.mlp.b2"]
    learnable = temperature == "learnable"
    if learnable:
        names.insert(0, "fusion.log_t")
    p = [params[name] for name in names]
    w1, b1, w2, b2 = (t.values for t in p[-4:])
    hi, hj = h_i.values, h_j.values
    diff = hi - hj
    mag = np.abs(diff)
    hid = np.matmul(mag, w1) + b1
    hid_on = hid > 0
    act = hid * hid_on
    logits = np.matmul(act, w2) + b2
    if learnable:
        # t = 1 / exp(-log_t): the logits are scaled, then a t = 1 softmax
        scale = np.exp(p[0].values * -1.0)
        z, t = logits * scale, 1.0
    else:
        z, t = logits, float(temperature)
    z = z / t
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    alpha = e / e.sum(axis=-1, keepdims=True)
    h = hi.shape[-1]
    out = np.concatenate([alpha * hi, alpha * hj], axis=-1)

    def grads(g):
        g_i, g_j = g[..., :h], g[..., h:]
        g_alpha = g_j * hj + g_i * hi
        inner = (g_alpha * alpha).sum(axis=-1, keepdims=True)
        g_z = (g_alpha - inner) * alpha / t
        if learnable:
            g_logits = g_z * scale
            g_log_t = [ad.unbroadcast(g_z * logits, ()) * scale * -1.0]
        else:
            g_logits, g_log_t = g_z, []
        g_act = ad.matmul_grad_left(g_logits, w2, act.shape)
        g_w2 = ad.matmul_grad_right(act, g_logits, w2.shape)
        g_b2 = ad.unbroadcast(g_logits, b2.shape)
        g_hid = g_act * hid_on
        g_abs = ad.matmul_grad_left(g_hid, w1, diff.shape)
        g_w1 = ad.matmul_grad_right(mag, g_hid, w1.shape)
        g_b1 = ad.unbroadcast(g_hid, b1.shape)
        g_diff = g_abs * np.sign(diff)
        return [g_j * alpha, g_i * alpha, *g_log_t, g_w1, g_b1, g_w2, g_b2, g_diff, -g_diff]

    # h_j and h_i are handed their gradients through u_j, then u_i, then
    # again through |h_i - h_j|
    return ad.fused(out, [h_j, h_i, *p, h_i, h_j], grads), alpha


def diffatt(h_i, h_j, params: dict, temperature="learnable"):
    """Difference attention: returns (u_i, u_j, alpha).

    ``diffatt_pair``'s node split into its halves u_i and u_j, through
    which gradients flow; alpha is a constant.
    """
    both, alpha = diffatt_pair(h_i, h_j, params, temperature)
    h = alpha.shape[-1]
    return _columns(both, 0, h), _columns(both, h, 2 * h), Tensor(alpha)


def _columns(t: Tensor, start: int, stop: int) -> Tensor:
    """Columns start:stop of t's last axis, with t's gradient zero elsewhere."""

    def grads(g):
        full = np.zeros(t.shape)
        full[..., start:stop] = g
        return [full]

    return ad.fused(t.values[..., start:stop], [t], grads)


def ntn(h_i, h_j, params: dict, slices: int) -> Tensor:
    """Bilinear tensor fusion: tanh(h_i^T W^[1:S] h_j + V [h_i, h_j] + b)."""
    h_i, h_j = ad.as_tensor(h_i), ad.as_tensor(h_j)
    cols = []
    for s in range(slices):
        prod = ad.reduce_sum(
            ad.mul(ad.matmul(h_i, params[f"fusion.ntn.W{s}"]), h_j),
            axis=-1,
            keepdims=True,
        )
        cols.append(prod)
    bilinear = ad.concat(cols, axis=-1)
    cat = ad.concat([h_i, h_j], axis=-1)
    linear = ad.matmul(cat, params["fusion.ntn.V"])
    return ad.tanh(ad.add(ad.add(bilinear, linear), params["fusion.ntn.b"]))


def efn(h_i, h_j, params: dict) -> Tensor:
    """Gated fusion: MLP(sigmoid(Wu relu(Wd h)) * h + h) on h = [h_i, h_j]."""
    h = ad.concat([ad.as_tensor(h_i), ad.as_tensor(h_j)], axis=-1)
    gate = ad.sigmoid(ad.matmul(ad.relu(ad.matmul(h, params["fusion.efn.Wd"])), params["fusion.efn.Wu"]))
    gated = ad.add(ad.mul(gate, h), h)
    return mlp(gated, params, "fusion.efn.mlp", 2)


def distance_fusion(h_i, h_j, p: int) -> Tensor:
    """Element-wise |h_i - h_j| ** p for p in {1, 2}."""
    if p not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {p}")
    diff = ad.sub(h_i, h_j)
    return ad.absolute(diff) if p == 1 else ad.mul(diff, diff)


def no_fusion(h_i, h_j) -> Tensor:
    return ad.concat([ad.as_tensor(h_i), ad.as_tensor(h_j)], axis=-1)


def fuse(variant: str, h_i, h_j, params: dict, *, temperature="learnable", ntn_slices: int = 16) -> Tensor:
    """Per-scale fused vector for the given variant."""
    if variant == "diffatt":
        return diffatt_pair(h_i, h_j, params, temperature)[0]
    if variant == "ntn":
        return ntn(h_i, h_j, params, ntn_slices)
    if variant == "efn":
        return efn(h_i, h_j, params)
    if variant == "abs":
        return distance_fusion(h_i, h_j, 1)
    if variant == "square":
        return distance_fusion(h_i, h_j, 2)
    if variant == "none":
        return no_fusion(h_i, h_j)
    raise ValueError(f"unknown fusion variant {variant!r}")
