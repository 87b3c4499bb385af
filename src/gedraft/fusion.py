"""Graph-level fusion modules.

All functions operate on batched graph vectors (B, hidden) and return the
per-scale fused representation. One parameter set is shared across scales.

Variants: difference attention (diffatt), bilinear tensor fusion (ntn),
gated fusion (efn), element-wise absolute/squared distance, and plain
concatenation (none).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import init_mlp, mlp, xavier_uniform

VARIANTS = ("diffatt", "ntn", "efn", "abs", "square", "none")


def init_fusion_params(
    rng: np.random.Generator,
    variant: str,
    hidden: int,
    temperature="learnable",
    ntn_slices: int = 16,
    efn_reduction: int = 4,
) -> dict:
    p: dict[str, Tensor] = {}

    def param(name, values):
        p[name] = Tensor(values, requires_grad=True)

    if variant == "diffatt":
        p.update(init_mlp(rng, (hidden, hidden, hidden), "fusion.mlp"))
        if temperature == "learnable":
            # t = exp(log_t) keeps the temperature positive; init t = 1
            param("fusion.log_t", np.zeros(()))
        elif not float(temperature) > 0:
            raise ValueError(f"temperature must be positive, got {temperature}")
    elif variant == "ntn":
        if ntn_slices < 1:
            raise ValueError(f"need ntn_slices >= 1, got {ntn_slices}")
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


def diffatt(h_i, h_j, params: dict, temperature="learnable"):
    """Difference attention: returns (u_i, u_j, alpha).

    alpha = softmax(MLP(|h_i - h_j|) / t) rescales both embeddings
    element-wise; with a learnable temperature t = exp(log_t).
    """
    h_diff = mlp(ad.absolute(ad.sub(h_i, h_j)), params, "fusion.mlp", 2)
    if temperature == "learnable":
        scaled = ad.mul(h_diff, ad.exp(ad.scalar_mul(params["fusion.log_t"], -1.0)))
        alpha = ad.softmax_with_temperature(scaled, 1.0, axis=-1)
    else:
        alpha = ad.softmax_with_temperature(h_diff, float(temperature), axis=-1)
    return ad.mul(alpha, h_i), ad.mul(alpha, h_j), alpha


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
        u_i, u_j, _ = diffatt(h_i, h_j, params, temperature)
        return ad.concat([u_i, u_j], axis=-1)
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
