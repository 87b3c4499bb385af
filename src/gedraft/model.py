"""Model assembly: encoder -> per-scale fusion -> MLP regressor.

``ModelConfig`` holds every option of the model, and its ``__post_init__``
is the one place they are checked. The encoder and the fusion stage take
the config whole (``init_encoder_params``, ``init_fusion_params``,
``encode_graphs``, ``fuse``) and check none of it again.

The predicted similarity is an unclamped scalar (no output sigmoid);
training and evaluation consume raw predictions.

A checkpoint is the model only: JSON (schema version 1) of the config and
the parameters, with canonical key ordering and floats in shortest
round-trip form (see ``dataset.json_float``), so a round-trip restores
every parameter bit-exactly.
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
from .dataset import json_float, read_json
from .graphs import Graph

CHECKPOINT_VERSION = "1"
PREDICT_CHUNK = 512  # pairs per forward pass in ``predict``


def check_field_types(config) -> None:
    """ValueError unless each field of the dataclass ``config`` holds its
    annotation's type: an ``int`` or ``str`` field exactly that type, a
    ``float`` field an int or a float but never a bool. A field annotated
    ``object`` is left to its class."""
    for name, kind in typing.get_type_hints(type(config)).items():
        value = getattr(config, name)
        allowed = (int, float) if kind is float else (kind,)
        if kind is not object and type(value) not in allowed:
            raise ValueError(f"config field {name!r} has a value of the wrong type: {value!r}")


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
        check_field_types(self)
        if self.alphabet_size < 1 or self.hidden < 1 or self.layers < 1:
            raise ValueError("alphabet_size, hidden, and layers must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.readout not in enc.READOUTS:
            raise ValueError(f"unknown readout {self.readout!r}")
        if self.fusion not in fus.VARIANTS:
            raise ValueError(f"unknown fusion variant {self.fusion!r}")
        # a JSON integer can lie beyond the largest double, so no float() here
        t = self.temperature
        if not (t == "learnable" or type(t) in (int, float) and 0 < t <= sys.float_info.max):
            raise ValueError(f"temperature must be 'learnable' or finite and positive, got {t!r}")
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
        return asdict(self)

    @staticmethod
    def from_json(doc) -> "ModelConfig":
        """The config in a JSON object; ValueError for anything else, such as
        an integer field that is not a JSON integer or is a boolean (the
        type check is ``__post_init__``'s)."""
        if not isinstance(doc, dict):
            raise ValueError(f"config must be an object, got {type(doc).__name__}")
        unknown = set(doc) - set(ModelConfig.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "alphabet_size" not in doc:
            raise ValueError("config lacks alphabet_size")
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

    Each distinct graph object in the batch is encoded once.
    """
    graphs, rows = enc.distinct_graphs([g for pair in pairs for g in pair])
    scales = enc.encode_graphs(graphs, params, cfg)
    scales_i = [ad.index_rows(s, rows[0::2]) for s in scales]
    scales_j = [ad.index_rows(s, rows[1::2]) for s in scales]
    fused = fused_pair_embedding(scales_i, scales_j, params, cfg)
    return regress(fused, params)


def predict(pairs: list[tuple[Graph, Graph]], params: dict, cfg: ModelConfig) -> np.ndarray:
    """Predicted similarities of the graph pairs, in order, computed
    ``PREDICT_CHUNK`` pairs per forward pass on frozen parameters, so no
    autodiff tape is built."""
    params = frozen(params)
    out = np.empty(len(pairs))
    for start in range(0, len(pairs), PREDICT_CHUNK):
        chunk = pairs[start : start + PREDICT_CHUNK]
        out[start : start + len(chunk)] = forward_pairs(chunk, params, cfg).values
    return out


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


def _check_shapes(arrays: dict, shapes: dict) -> None:
    for name, shape in shapes.items():
        if name not in arrays:
            raise CheckpointError(f"missing parameter {name!r}")
        if arrays[name].shape != tuple(shape):
            raise CheckpointError(
                f"parameter {name!r} has shape {arrays[name].shape}, expected {tuple(shape)}"
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


def save_checkpoint(params: dict, cfg: ModelConfig, path) -> None:
    """Write ``json.dumps(doc, sort_keys=True) + "\n"`` of the checkpoint's
    document one array at a time, so that no more than one array's text is
    held at once. FloatingPointError for a non-finite parameter, before the
    file is opened."""
    doc = {
        "version": CHECKPOINT_VERSION,
        "config": cfg.to_json(),
        "params": {name: t.values for name, t in params.items()},
    }
    if not all(np.isfinite(a).all() for a in doc["params"].values()):
        raise FloatingPointError("cannot write a non-finite value: JSON has no non-finite numbers")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_pieces(doc))
        fh.write("\n")


def load_checkpoint(path):
    """Returns (params, config, None): the third value is always None, kept
    for callers that unpack three. CheckpointError, naming ``path``, for a
    file that is not a checkpoint of the current version, or has any other
    top-level key."""
    doc = read_json(path, CheckpointError)
    try:
        return (*_checkpoint_from_json(doc), None)
    except ValueError as exc:  # CheckpointError, or ModelConfig's refusal
        raise CheckpointError(f"{path}: {exc}") from None


def _checkpoint_from_json(doc) -> tuple[dict, ModelConfig]:
    if not isinstance(doc, dict):
        raise CheckpointError("a checkpoint is a JSON object")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unknown checkpoint version {doc.get('version')!r}; "
            f"expected {CHECKPOINT_VERSION!r}"
        )
    unknown = set(doc) - {"version", "config", "params"}
    if unknown:
        raise CheckpointError(f"unknown top-level keys: {sorted(unknown)}")
    cfg = ModelConfig.from_json(doc.get("config"))
    if not isinstance(doc.get("params"), dict):
        raise CheckpointError("params is not an object")
    arrays = {k: _array_from_json(v, f"parameter {k!r}") for k, v in doc["params"].items()}
    # init_params allocates whatever the config asks for, so check its widths
    # against three stored shapes first; the file's size then bounds it.
    h = cfg.hidden
    _check_shapes(arrays, {
        "encoder.proj.W": (cfg.alphabet_size, h),
        "encoder.layer1.gin.W": (h, h),
        "regressor.W1": (cfg.fused_dim, cfg.regressor_widths[0]),
    })
    shapes = {name: t.shape for name, t in init_params(cfg).items()}
    _check_shapes(arrays, shapes)
    extra = set(arrays) - set(shapes)
    if extra:
        raise CheckpointError(f"unexpected parameter names: {sorted(extra)}")
    return {name: Tensor(arrays[name], requires_grad=True) for name in shapes}, cfg


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
