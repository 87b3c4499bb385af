"""Supervised pair dataset and its JSON file format (schema version 1).

File layout::

    {"version": "1",
     "alphabet": ["C", "N", ...],
     "graphs": [{"id": ..., "labels": [int], "edges": [[u, v], ...]}, ...],
     "pairs": [{"i": id, "j": id, "ged": int, "nged": float,
                "sim": float, "split": "train"|"val"|"test"}, ...]}

Edges are sorted (u < v, then lexicographic). Floats are written in
shortest round-trip form, so a round-trip is bit-exact; an integral float
below 1e17 in magnitude is written as an integer (``1.0`` as ``1``). NaN
and infinities cannot be written.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .graphs import Graph, validate

SCHEMA_VERSION = "1"
SPLITS = ("train", "val", "test")
_LABEL_TOL = 1e-12


@dataclass(frozen=True)
class PairRecord:
    i: str
    j: str
    ged: int
    nged: float
    sim: float
    split: str


@dataclass
class Dataset:
    alphabet: tuple[str, ...]
    graphs: list[Graph]
    pairs: list[PairRecord]
    _by_id: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._by_id = {g.id: g for g in self.graphs}

    def graph(self, gid: str) -> Graph:
        return self._by_id[gid]

    def split_pairs(self, split: str) -> list[PairRecord]:
        return [p for p in self.pairs if p.split == split]

    def validate(self) -> list[str]:
        violations = []
        if len(self._by_id) != len(self.graphs):
            violations.append("duplicate graph ids")
        for g in self.graphs:
            for v in validate(g):
                violations.append(f"graph {g.id!r}: {v}")
            if g.labels and max(g.labels) >= len(self.alphabet):
                violations.append(f"graph {g.id!r}: label outside alphabet")
        # per graph: nodes, and nodes plus edges; deleting all of one graph
        # and inserting all of the other is an edit path, so a GED is at most
        # the sum of the second numbers
        sizes = {g.id: (g.n, g.n + g.num_edges) for g in self.graphs}
        for idx, p in enumerate(self.pairs):
            si, sj = sizes.get(p.i), sizes.get(p.j)
            if si is None or sj is None:
                violations.append(f"pair {idx}: unknown graph id")
                continue
            if p.split not in SPLITS:
                violations.append(f"pair {idx}: unknown split {p.split!r}")
            if not 0 <= p.ged <= si[1] + sj[1]:
                violations.append(f"pair {idx}: ged {p.ged} outside 0..{si[1] + sj[1]}")
                continue
            if not si[0] + sj[0]:
                continue  # two empty graphs, reported above
            want_nged = p.ged / ((si[0] + sj[0]) / 2)
            # written so that NaN fails; sim is checked once nged is sane
            if not abs(p.nged - want_nged) <= _LABEL_TOL:
                violations.append(f"pair {idx}: nged inconsistent with ged")
            elif not abs(p.sim - math.exp(-p.nged)) <= _LABEL_TOL:
                violations.append(f"pair {idx}: sim != exp(-nged)")
        return violations


class DatasetFormatError(ValueError):
    pass


def json_float(x) -> int | float:
    """``x`` as the JSON writers hold it: ``json.loads(format(x, ".17g"))``,
    computed without the string.

    That is ``int(x)`` for an integral ``x`` below 1e17 in magnitude (whose
    17 digits print without a point or an exponent) and the float itself
    otherwise; ``json`` writes floats in shortest round-trip form. Raises
    ValueError for NaN and infinities, which JSON cannot hold.
    """
    x = float(x)
    if x.is_integer():
        return int(x) if -1e17 < x < 1e17 else x
    if not math.isfinite(x):
        raise ValueError(f"cannot write {x!r}: JSON has no non-finite numbers")
    return x


def dataset_to_json(ds: Dataset) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "alphabet": list(ds.alphabet),
        "graphs": [
            {
                "id": g.id,
                "labels": list(g.labels),
                "edges": [[u, v] for u, v in sorted(g.edges)],
            }
            for g in ds.graphs
        ],
        "pairs": [
            {
                "i": p.i,
                "j": p.j,
                "ged": p.ged,
                "nged": json_float(p.nged),
                "sim": json_float(p.sim),
                "split": p.split,
            }
            for p in ds.pairs
        ],
    }


def _pair_from_json(rec) -> PairRecord:
    if not isinstance(rec, dict):
        raise ValueError("record must be an object")
    missing = [key for key in PairRecord.__dataclass_fields__ if key not in rec]
    if missing:
        raise ValueError(f"record lacks {', '.join(missing)}")
    for key in ("i", "j", "split"):
        if not isinstance(rec[key], str):
            raise ValueError(f"{key} {rec[key]!r} is not a string")
    if type(rec["ged"]) is not int:
        raise ValueError(f"ged {rec['ged']!r} is not an integer")
    for key in ("nged", "sim"):
        x = rec[key]
        if type(x) not in (int, float) or not math.isfinite(x):
            raise ValueError(f"{key} {x!r} is not a finite number")
    return PairRecord(
        rec["i"], rec["j"], rec["ged"], float(rec["nged"]), float(rec["sim"]), rec["split"]
    )


def dataset_from_json(doc: dict) -> Dataset:
    if not isinstance(doc, dict):
        raise DatasetFormatError("top-level document must be an object")
    version = doc.get("version")
    if version != SCHEMA_VERSION:
        raise DatasetFormatError(
            f"unknown schema version {version!r}; expected {SCHEMA_VERSION!r}"
        )
    for key in ("alphabet", "graphs", "pairs"):
        if key not in doc:
            raise DatasetFormatError(f"missing field {key!r}")
        if not isinstance(doc[key], list):
            raise DatasetFormatError(f"field {key!r} must be a list")
    if not all(isinstance(sym, str) for sym in doc["alphabet"]):
        raise DatasetFormatError("alphabet must be a list of strings")
    graphs = []
    for idx, rec in enumerate(doc["graphs"]):
        try:
            graphs.append(Graph.from_json(rec))
        except ValueError as exc:
            raise DatasetFormatError(f"graph {idx}: malformed record ({exc})")
    pairs = []
    for idx, rec in enumerate(doc["pairs"]):
        try:
            pairs.append(_pair_from_json(rec))
        except ValueError as exc:
            raise DatasetFormatError(f"pair {idx}: malformed record ({exc})")
    ds = Dataset(tuple(doc["alphabet"]), graphs, pairs)
    violations = ds.validate()
    if violations:
        raise DatasetFormatError("invariant violations: " + "; ".join(violations))
    return ds


def write_dataset(ds: Dataset, path) -> None:
    violations = ds.validate()
    if violations:
        raise DatasetFormatError("refusing to write: " + "; ".join(violations))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataset_to_json(ds), fh, indent=1)
        fh.write("\n")


def read_dataset(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"{path}: line {exc.lineno}: {exc.msg}")
    return dataset_from_json(doc)
