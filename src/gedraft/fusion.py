"""Graph-level fusion modules.

All functions operate on batched graph vectors (B, hidden) and return the
per-scale fused representation. One parameter set is shared across scales.

Variants: difference attention (diffatt), bilinear tensor fusion (ntn),
gated fusion (efn), element-wise absolute/squared distance, and plain
concatenation (none). Difference attention is one autodiff node
(``diffatt_pair``), bit for bit the composed elementary ops; the other
variants are composed.

``init_fusion_params`` and ``fuse`` take the model's ``ModelConfig`` whole
and check none of it again: ``ModelConfig`` is the one place the variant,
the temperature, ``ntn_slices`` and ``efn_reduction`` are checked.
``diffatt_pair`` takes its temperature as given, so that the gradient
check and the tests can call the block on its own.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import init_mlp, mlp, xavier_uniform

if TYPE_CHECKING:  # model imports this module
    from .model import ModelConfig

VARIANTS = ("diffatt", "ntn", "efn", "abs", "square", "none")
# difference attention's parameters; fusion.log_t only with a learnable
# temperature
ATTENTION_PARAMS = ("fusion.log_t", "fusion.mlp.W1", "fusion.mlp.b1",
                    "fusion.mlp.W2", "fusion.mlp.b2")


def init_fusion_params(rng: np.random.Generator, cfg: ModelConfig) -> dict:
    hidden = cfg.hidden
    p: dict[str, Tensor] = {}

    def param(name, values):
        p[name] = Tensor(values, requires_grad=True)

    if cfg.fusion == "diffatt":
        p.update(init_mlp(rng, (hidden, hidden, hidden), "fusion.mlp"))
        if cfg.temperature == "learnable":
            # t = exp(log_t) keeps the temperature positive; init t = 1
            param("fusion.log_t", np.zeros(()))
    elif cfg.fusion == "ntn":
        slices = cfg.ntn_slices
        for s in range(slices):
            param(f"fusion.ntn.W{s}", xavier_uniform(rng, hidden, hidden, (hidden, hidden)))
        param("fusion.ntn.V", xavier_uniform(rng, 2 * hidden, slices, (2 * hidden, slices)))
        param("fusion.ntn.b", np.zeros(slices))
    elif cfg.fusion == "efn":
        wide = 2 * hidden
        narrow = max(1, wide // cfg.efn_reduction)
        param("fusion.efn.Wd", xavier_uniform(rng, wide, narrow, (wide, narrow)))
        param("fusion.efn.Wu", xavier_uniform(rng, narrow, wide, (narrow, wide)))
        p.update(init_mlp(rng, (wide, wide, wide), "fusion.efn.mlp"))
    return p


def diffatt_pair(h_i, h_j, params: dict, temperature="learnable") -> tuple[Tensor, np.ndarray]:
    """Difference attention as one tape node: ([u_i, u_j], alpha).

    alpha = softmax(MLP(|h_i - h_j|) / t) rescales both embeddings
    element-wise, u = alpha * h; with a learnable temperature
    t = exp(log_t). The value and the gradients are those of the composed
    ops (sub, abs, matmul, add, relu, exp, mul, softmax, concat) bit for
    bit: each expression is theirs, in their order. The MLP runs through
    ``ad.dense_values``.
    """
    h_i, h_j = ad.as_tensor(h_i), ad.as_tensor(h_j)
    learnable = temperature == "learnable"
    p = [params[name] for name in ATTENTION_PARAMS[0 if learnable else 1:]]
    w1, b1, w2, b2 = (t.values for t in p[-4:])
    hi, hj = h_i.values, h_j.values
    diff = hi - hj
    mag = np.abs(diff)
    logits, mlp_grads = ad.dense_values(mag, [(w1, b1), (w2, b2)], True)
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
        g_abs, *g_mlp = mlp_grads(g_logits)
        g_diff = g_abs * np.sign(diff)
        return [g_j * alpha, g_i * alpha, *g_log_t, *g_mlp, g_diff, -g_diff]

    # h_j and h_i are handed their gradients through u_j, then u_i, then
    # again through |h_i - h_j|
    return ad.node(out, [h_j, h_i, *p, h_i, h_j], grads), alpha


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


def fuse(h_i, h_j, params: dict, cfg: ModelConfig) -> Tensor:
    """Per-scale fused vector of ``cfg.fusion``."""
    if cfg.fusion == "diffatt":
        return diffatt_pair(h_i, h_j, params, cfg.temperature)[0]
    if cfg.fusion == "ntn":
        return ntn(h_i, h_j, params, cfg.ntn_slices)
    if cfg.fusion == "efn":
        return efn(h_i, h_j, params)
    if cfg.fusion == "none":
        return ad.concat([ad.as_tensor(h_i), ad.as_tensor(h_j)], axis=-1)
    diff = ad.sub(h_i, h_j)  # abs or square: |h_i - h_j| ** p, p = 1 or 2
    return ad.absolute(diff) if cfg.fusion == "abs" else ad.mul(diff, diff)
