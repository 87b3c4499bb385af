"""Model assembly: encoder -> per-scale fusion -> MLP regressor.

``ModelConfig`` holds every option of the model, and its ``__post_init__``
is the one place they are checked. The encoder and the fusion stage take
the config whole (``init_encoder_params``, ``init_fusion_params``,
``encode_graphs``, ``fuse``) and check none of it again.

The predicted similarity is an unclamped scalar (no output sigmoid);
training and evaluation consume raw predictions.

Checkpoints are JSON (schema version 1) with canonical key ordering and
floats in shortest round-trip form (see ``dataset.json_float``), so a
round-trip restores every parameter bit-exactly.
"""

from __future__ import annotations

import json
import sys
import typing
from dataclasses import asdict, dataclass

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
    temperature: object = "learnable"  # "learnable" or a finite positive float
    ntn_slices: int = 16
    efn_reduction: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.alphabet_size < 1 or self.hidden < 1 or self.layers < 1:
            raise ValueError("alphabet_size, hidden, and layers must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.readout not in enc.READOUTS:
            raise ValueError(f"unknown readout {self.readout!r}")
        if self.fusion not in fus.VARIANTS:
            raise ValueError(f"unknown fusion variant {self.fusion!r}")
        # a JSON integer can lie beyond the largest double, so no float() here
        if self.temperature != "learnable" and not 0 < self.temperature <= sys.float_info.max:
            raise ValueError(
                f"temperature must be 'learnable' or finite and positive, got {self.temperature}"
            )
        if self.ntn_slices < 1 or self.efn_reduction < 1:
            raise ValueError("ntn_slices and efn_reduction must be >= 1")

    @property
    def fused_dim(self) -> int:
        """Width of the regressor's input: one fused vector per scale 0..layers."""
        if self.fusion == "ntn":
            per_scale = self.ntn_slices
        elif self.fusion in ("abs", "square"):
            per_scale = self.hidden
        else:  # diffatt, efn and none keep both halves of the pair
            per_scale = 2 * self.hidden
        return (self.layers + 1) * per_scale

    @property
    def regressor_widths(self) -> tuple[int, int]:
        return max(8, self.fused_dim // 2), max(8, self.fused_dim // 4)

    def to_json(self) -> dict:
        doc = asdict(self)
        return doc

    @staticmethod
    def from_json(doc) -> "ModelConfig":
        """The config in a JSON object; ValueError for anything else, such as
        an integer field that is not a JSON integer or is a boolean."""
        if not isinstance(doc, dict):
            raise ValueError(f"config must be an object, got {type(doc).__name__}")
        unknown = set(doc) - set(ModelConfig.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "alphabet_size" not in doc:
            raise ValueError("config lacks alphabet_size")
        types = typing.get_type_hints(ModelConfig)
        for key, value in doc.items():
            if key == "temperature":
                ok = value == "learnable" or type(value) in (int, float)
            else:
                ok = type(value) is types[key]
            if not ok:
                raise ValueError(f"config field {key!r} has a value of the wrong type: {value!r}")
        return ModelConfig(**doc)


def init_params(cfg: ModelConfig) -> dict:
    rng = np.random.default_rng(cfg.seed)
    params = enc.init_encoder_params(rng, cfg)
    params.update(fus.init_fusion_params(rng, cfg))
    params.update(enc.init_mlp(rng, (cfg.fused_dim, *cfg.regressor_widths, 1), "regressor"))
    return params


def regress(fused: Tensor, params: dict) -> Tensor:
    """Two-hidden-layer relu MLP down to one unclamped scalar per row."""
    out = enc.mlp(fused, params, "regressor", 3)
    return ad.reshape(out, (out.shape[0],))


def fused_pair_embedding(scales_i, scales_j, params: dict, cfg: ModelConfig) -> Tensor:
    fused = [fus.fuse(h_i, h_j, params, cfg) for h_i, h_j in zip(scales_i, scales_j)]
    return ad.concat(fused, axis=-1)


def forward_pairs(pairs: list[tuple[Graph, Graph]], params: dict, cfg: ModelConfig) -> Tensor:
    """Predicted similarities for a batch of graph pairs, shape (B,).

    Each distinct graph in the batch is encoded once.
    """
    graphs, rows = enc.distinct_graphs([g for pair in pairs for g in pair])
    scales = enc.encode_graphs(graphs, params, cfg)
    scales_i = [ad.index_rows(s, rows[0::2]) for s in scales]
    scales_j = [ad.index_rows(s, rows[1::2]) for s in scales]
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


def _array_from_json(doc, what: str) -> np.ndarray:
    if not isinstance(doc, dict):
        raise CheckpointError(f"{what} is not an object")
    shape, values = doc.get("shape"), doc.get("values")
    if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
        raise CheckpointError(f"{what} has no list of dimensions as its shape")
    if not isinstance(values, list) or not all(type(v) in (int, float) for v in values):
        raise CheckpointError(f"{what} has no list of numbers as its values")
    try:
        array = np.asarray(values, dtype=np.float64).reshape(shape)
    except (OverflowError, ValueError) as exc:  # beyond double range, or wrong count
        raise CheckpointError(f"{what}: {exc}")
    if not np.isfinite(array).all():
        raise CheckpointError(f"{what} holds a non-finite number")
    return array


def _arrays_from_json(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise CheckpointError(f"{what} is not an object")
    return {name: _array_from_json(rec, f"{what} {name!r}") for name, rec in doc.items()}


def _check_shapes(arrays: dict, shapes: dict, what: str) -> None:
    for name, shape in shapes.items():
        if name not in arrays:
            raise CheckpointError(f"missing {what} {name!r}")
        if arrays[name].shape != tuple(shape):
            raise CheckpointError(
                f"{what} {name!r} has shape {arrays[name].shape}, expected {tuple(shape)}"
            )


def _json_pieces(obj):
    """The text of ``json.dumps(obj, sort_keys=True)`` in pieces, each array
    (``_array_json``) and each other leaf through json's C encoder."""
    if isinstance(obj, dict):
        yield "{"
        for k, key in enumerate(sorted(obj)):
            yield (", " if k else "") + json.dumps(key) + ": "
            yield from _json_pieces(obj[key])
        yield "}"
    elif isinstance(obj, np.ndarray):
        yield json.dumps(_array_json(obj), sort_keys=True)
    else:
        yield json.dumps(obj, sort_keys=True)


def save_checkpoint(params: dict, cfg: ModelConfig, path, optimizer_state=None) -> None:
    """Write ``json.dumps(doc, sort_keys=True) + "\n"`` of the checkpoint's
    document one array at a time, so that no more than one array's text is
    held at once. ValueError for a non-finite value, before the file is
    opened."""
    doc = {
        "version": CHECKPOINT_VERSION,
        "config": cfg.to_json(),
        "params": {name: t.values for name, t in params.items()},
    }
    arrays = list(doc["params"].values())
    if optimizer_state is not None:
        doc["optimizer"] = {key: optimizer_state[key] for key in ("step", "m", "v")}
        arrays += [*optimizer_state["m"].values(), *optimizer_state["v"].values()]
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("cannot write a non-finite value: JSON has no non-finite numbers")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_pieces(doc))
        fh.write("\n")


def load_checkpoint(path):
    """Returns (params, config, optimizer_state-or-None); CheckpointError for
    a file that is not a checkpoint of the current version."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"{path}: line {exc.lineno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise CheckpointError(f"{path}: a checkpoint is a JSON object")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unknown checkpoint version {doc.get('version')!r}; "
            f"expected {CHECKPOINT_VERSION!r}"
        )
    try:
        cfg = ModelConfig.from_json(doc.get("config"))
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}")
    groups = {"parameter": _arrays_from_json(doc.get("params"), "parameter")}
    # init_params allocates whatever the config asks for, so check its widths
    # against three stored shapes first; the file's size then bounds it.
    h = cfg.hidden
    _check_shapes(groups["parameter"], {
        "encoder.proj.W": (cfg.alphabet_size, h),
        "encoder.layer1.gin.W": (h, h),
        "regressor.W1": (cfg.fused_dim, cfg.regressor_widths[0]),
    }, "parameter")
    opt = doc.get("optimizer")
    if "optimizer" in doc:
        if not isinstance(opt, dict) or type(opt.get("step")) is not int or opt["step"] < 0:
            raise CheckpointError("optimizer state has no step count")
        for key in ("m", "v"):
            groups[f"optimizer {key}"] = _arrays_from_json(opt.get(key), f"optimizer {key}")
    shapes = {name: t.shape for name, t in init_params(cfg).items()}
    for what, arrays in groups.items():
        _check_shapes(arrays, shapes, what)
        extra = set(arrays) - set(shapes)
        if extra:
            raise CheckpointError(f"unexpected {what} names: {sorted(extra)}")
    params = {name: Tensor(groups["parameter"][name], requires_grad=True) for name in shapes}
    if opt is None:
        return params, cfg, None
    return params, cfg, {
        "step": opt["step"], "m": groups["optimizer m"], "v": groups["optimizer v"]
    }


def copy_params(params: dict) -> dict:
    return {
        name: Tensor(t.values.copy(), requires_grad=t.requires_grad)
        for name, t in params.items()
    }


def frozen(params: dict) -> dict:
    """The parameters as constants that share their values: a forward pass
    over them builds no autodiff tape."""
    return {name: Tensor(t.values) for name, t in params.items()}


def params_equal(a: dict, b: dict) -> bool:
    if set(a) != set(b):
        return False
    return all(np.array_equal(a[k].values, b[k].values) for k in a)
