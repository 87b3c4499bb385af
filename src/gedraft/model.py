"""Model assembly: encoder -> per-scale fusion -> MLP regressor.

The predicted similarity is an unclamped scalar (no output sigmoid);
training and evaluation consume raw predictions.

Checkpoints are JSON (schema version 1) with canonical key ordering and
floats in shortest round-trip form (see ``dataset.json_float``), so a
round-trip restores every parameter bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from . import encoder as enc
from . import fusion as fus
from .autodiff import Tensor
from .dataset import json_float
from .graphs import Graph

CHECKPOINT_VERSION = "1"


@dataclass(frozen=True)
class ModelConfig:
    alphabet_size: int
    hidden: int = 64
    layers: int = 3
    readout: str = "gca"
    fusion: str = "diffatt"
    temperature: object = "learnable"  # "learnable" or a positive float
    ntn_slices: int = 16
    efn_reduction: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.alphabet_size < 1 or self.hidden < 1 or self.layers < 1:
            raise ValueError("alphabet_size, hidden, and layers must be >= 1")
        if self.readout not in enc.READOUTS:
            raise ValueError(f"unknown readout {self.readout!r}")
        if self.fusion not in fus.VARIANTS:
            raise ValueError(f"unknown fusion variant {self.fusion!r}")
        if self.temperature != "learnable" and not float(self.temperature) > 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")

    @property
    def fused_dim(self) -> int:
        per_scale = fus.per_scale_width(self.fusion, self.hidden, self.ntn_slices)
        return (self.layers + 1) * per_scale

    @property
    def regressor_widths(self) -> tuple[int, int]:
        return max(8, self.fused_dim // 2), max(8, self.fused_dim // 4)

    def to_json(self) -> dict:
        doc = asdict(self)
        return doc

    @staticmethod
    def from_json(doc: dict) -> "ModelConfig":
        known = set(ModelConfig.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return ModelConfig(**doc)


def init_params(cfg: ModelConfig) -> dict:
    rng = np.random.default_rng(cfg.seed)
    params = enc.init_encoder_params(rng, cfg.alphabet_size, cfg.hidden, cfg.layers, cfg.readout)
    params.update(
        fus.init_fusion_params(
            rng, cfg.fusion, cfg.hidden, cfg.temperature, cfg.ntn_slices, cfg.efn_reduction
        )
    )
    d = cfg.fused_dim
    h1, h2 = cfg.regressor_widths
    params["regressor.W1"] = Tensor(enc.xavier_uniform(rng, d, h1, (d, h1)), requires_grad=True)
    params["regressor.b1"] = Tensor(np.zeros(h1), requires_grad=True)
    params["regressor.W2"] = Tensor(enc.xavier_uniform(rng, h1, h2, (h1, h2)), requires_grad=True)
    params["regressor.b2"] = Tensor(np.zeros(h2), requires_grad=True)
    params["regressor.W3"] = Tensor(enc.xavier_uniform(rng, h2, 1, (h2, 1)), requires_grad=True)
    params["regressor.b3"] = Tensor(np.zeros(1), requires_grad=True)
    return params


def regress(fused: Tensor, params: dict) -> Tensor:
    """Two-hidden-layer relu MLP down to one unclamped scalar per row."""
    x = ad.relu(ad.add(ad.matmul(fused, params["regressor.W1"]), params["regressor.b1"]))
    x = ad.relu(ad.add(ad.matmul(x, params["regressor.W2"]), params["regressor.b2"]))
    out = ad.add(ad.matmul(x, params["regressor.W3"]), params["regressor.b3"])
    return ad.reshape(out, (out.shape[0],))


def fused_pair_embedding(scales_i, scales_j, params: dict, cfg: ModelConfig) -> Tensor:
    fused = [
        fus.fuse(
            cfg.fusion,
            h_i,
            h_j,
            params,
            temperature=cfg.temperature,
            ntn_slices=cfg.ntn_slices,
        )
        for h_i, h_j in zip(scales_i, scales_j)
    ]
    return ad.concat(fused, axis=-1)


def forward_pairs(pairs: list[tuple[Graph, Graph]], params: dict, cfg: ModelConfig) -> Tensor:
    """Predicted similarities for a batch of graph pairs, shape (B,).

    Each distinct graph in the batch is encoded once.
    """
    unique: dict[str, int] = {}
    graphs: list[Graph] = []
    for gi, gj in pairs:
        for g in (gi, gj):
            if g.id not in unique:
                unique[g.id] = len(graphs)
                graphs.append(g)
    scales = enc.encode_graphs(graphs, params, cfg.alphabet_size, cfg.layers, cfg.readout)
    idx_i = [unique[gi.id] for gi, _ in pairs]
    idx_j = [unique[gj.id] for _, gj in pairs]
    scales_i = [ad.index_rows(s, idx_i) for s in scales]
    scales_j = [ad.index_rows(s, idx_j) for s in scales]
    fused = fused_pair_embedding(scales_i, scales_j, params, cfg)
    return regress(fused, params)


def forward(g_i: Graph, g_j: Graph, params: dict, cfg: ModelConfig) -> float:
    return float(forward_pairs([(g_i, g_j)], params, cfg).values[0])


def batch_loss(pairs, sims, params: dict, cfg: ModelConfig) -> Tensor:
    """Mean squared error of predictions against similarity labels."""
    if not pairs:
        raise ValueError("batch must be nonempty")
    preds = forward_pairs(pairs, params, cfg)
    return ad.mse_loss(preds, Tensor(np.asarray(sims, dtype=np.float64)))


# ---------------------------------------------------------------------------
# checkpoint I/O


class CheckpointError(ValueError):
    pass


def _array_json(a: np.ndarray):
    return {
        "shape": list(a.shape),
        "values": [json_float(v) for v in a.reshape(-1).tolist()],
    }


def _array_from_json(doc) -> np.ndarray:
    values = np.asarray(doc["values"], dtype=np.float64)
    return values.reshape(doc["shape"])


def save_checkpoint(params: dict, cfg: ModelConfig, path, optimizer_state=None) -> None:
    doc = {
        "version": CHECKPOINT_VERSION,
        "config": cfg.to_json(),
        "params": {name: _array_json(t.values) for name, t in sorted(params.items())},
    }
    if optimizer_state is not None:
        doc["optimizer"] = {
            "step": optimizer_state["step"],
            "m": {k: _array_json(v) for k, v in sorted(optimizer_state["m"].items())},
            "v": {k: _array_json(v) for k, v in sorted(optimizer_state["v"].items())},
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path):
    """Returns (params, config, optimizer_state-or-None)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"{path}: line {exc.lineno}: {exc.msg}")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unknown checkpoint version {doc.get('version')!r}; "
            f"expected {CHECKPOINT_VERSION!r}"
        )
    cfg = ModelConfig.from_json(doc["config"])
    reference = init_params(cfg)
    params = {}
    for name, ref in reference.items():
        if name not in doc["params"]:
            raise CheckpointError(f"missing parameter {name!r}")
        values = _array_from_json(doc["params"][name])
        if values.shape != ref.shape:
            raise CheckpointError(
                f"parameter {name!r} has shape {values.shape}, expected {ref.shape}"
            )
        params[name] = Tensor(values, requires_grad=True)
    extra = set(doc["params"]) - set(reference)
    if extra:
        raise CheckpointError(f"unexpected parameters: {sorted(extra)}")
    opt_state = None
    if "optimizer" in doc:
        opt = doc["optimizer"]
        opt_state = {
            "step": opt["step"],
            "m": {k: _array_from_json(v) for k, v in opt["m"].items()},
            "v": {k: _array_from_json(v) for k, v in opt["v"].items()},
        }
    return params, cfg, opt_state


def copy_params(params: dict) -> dict:
    return {
        name: Tensor(t.values.copy(), requires_grad=t.requires_grad)
        for name, t in params.items()
    }


def params_equal(a: dict, b: dict) -> bool:
    if set(a) != set(b):
        return False
    return all(np.array_equal(a[k].values, b[k].values) for k in a)
