"""Supervised pair dataset and its JSON file format (schema version 1).

File layout::

    {"version": "1",
     "alphabet": ["C", "N", ...],
     "graphs": [{"id": ..., "labels": [int], "edges": [[u, v], ...]}, ...],
     "pairs": [{"i": id, "j": id, "ged": int, "nged": float,
                "sim": float, "split": "train"|"val"|"test"}, ...]}

Edges are sorted (u < v, then lexicographic). Floats are written in
shortest round-trip form, so a round-trip is bit-exact; an integral float
below 1e17 in magnitude is written as an integer (``1.0`` as ``1``). NaN,
infinities and numbers beyond double range can be neither written nor read.

The file is what ``json.dump(doc, fh, indent=1)`` and a newline write for
the document above, with its keys in the order shown, byte for byte.
``dataset_text`` fills that layout into a template instead of running
``json``'s pure-Python indenting encoder, which took most of the writing
time; it escapes each distinct graph id and split once. ``write_dataset``
checks the dataset with ``Dataset.validate`` first, field types included,
so it refuses whatever ``read_dataset`` would refuse before it opens the
file. ``read_dataset`` checks only what building the records needs, and
leaves every other field to ``validate``. The pair labels come from
``ged_exact``'s cost alone; the edit paths behind them are never built
while labeling.

A pair is a ``PairRecord``, a ``NamedTuple``. A labeled dataset keeps tens
of thousands of them, and a tuple takes a quarter less memory than a frozen
dataclass and about a third of its time to build.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple

from .graphs import Graph

SCHEMA_VERSION = "1"
SPLITS = ("train", "val", "test")
_LABEL_TOL = 1e-12


class PairRecord(NamedTuple):
    """One labeled pair: immutable, and compared field by field."""

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
        """Every violated invariant; an empty list means valid.

        Field types are checked as ``read_dataset`` checks them, so a
        dataset that passes is written as a file that reads back.
        """
        violations = []
        if not all(isinstance(sym, str) for sym in self.alphabet):
            violations.append("alphabet must be a list of strings")
        if len(self._by_id) != len(self.graphs):
            violations.append("duplicate graph ids")
        for g in self.graphs:
            if not isinstance(g.id, str):
                violations.append(f"graph id {g.id!r} is not a string")
                continue
            faults = g._violations  # validate(g), cached on the graph
            for v in faults:
                violations.append(f"graph {g.id!r}: {v}")
            # a graph with faults may hold labels that are not ints
            if not faults and g.max_label >= len(self.alphabet):
                violations.append(f"graph {g.id!r}: label outside alphabet")
        # per graph: nodes, and nodes plus edges; deleting all of one graph
        # and inserting all of the other is an edit path, so a GED is at most
        # the sum of the second numbers
        sizes = {g.id: (g.n, g.n + g.num_edges) for g in self.graphs}
        for idx, (i, j, ged, nged, sim, split) in enumerate(self.pairs):
            if not (isinstance(i, str) and isinstance(j, str)):
                violations.append(f"pair {idx}: graph ids {i!r}, {j!r} must be strings")
                continue
            if type(ged) is not int:
                violations.append(f"pair {idx}: ged {ged!r} is not an integer")
                continue
            if (type(nged) is bool or type(sim) is bool
                    or not (isinstance(nged, (int, float)) and isinstance(sim, (int, float)))):
                violations.append(f"pair {idx}: nged and sim must be numbers, not booleans")
                continue
            si, sj = sizes.get(i), sizes.get(j)
            if si is None or sj is None:
                violations.append(f"pair {idx}: unknown graph id")
                continue
            if split not in SPLITS:
                violations.append(f"pair {idx}: unknown split {split!r}")
            if not 0 <= ged <= si[1] + sj[1]:
                violations.append(f"pair {idx}: ged {ged} outside 0..{si[1] + sj[1]}")
                continue
            if not si[0] + sj[0]:
                continue  # two empty graphs, reported above
            want_nged = ged / ((si[0] + sj[0]) / 2)
            # written so that NaN fails; sim is checked once nged is sane
            try:
                if not abs(nged - want_nged) <= _LABEL_TOL:
                    violations.append(f"pair {idx}: nged inconsistent with ged")
                elif not abs(sim - math.exp(-nged)) <= _LABEL_TOL:
                    violations.append(f"pair {idx}: sim != exp(-nged)")
            except OverflowError:  # an int beyond double range
                violations.append(f"pair {idx}: nged or sim beyond double range")
        return violations


class DatasetFormatError(ValueError):
    pass


def read_json(path, error):
    """The JSON document in the file at ``path``, read as UTF-8. Raises
    ``error``, the caller's ValueError subclass, for a file that is not
    UTF-8, not JSON, or nests too deeply for ``json`` to parse."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise error(f"{path}: byte {exc.start}: not UTF-8") from None
        except json.JSONDecodeError as exc:
            raise error(f"{path}: line {exc.lineno}: {exc.msg}") from None
        except RecursionError:
            raise error(f"{path}: nested too deeply") from None


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


def _pair_from_json(rec) -> PairRecord:
    if not isinstance(rec, dict):
        raise ValueError("record must be an object")
    missing = [key for key in PairRecord._fields if key not in rec]
    if missing:
        raise ValueError(f"record lacks {', '.join(missing)}")
    for key in ("nged", "sim"):
        x = rec[key]
        # not math.isfinite, which raises OverflowError on a JSON integer
        # beyond double range; NaN fails too
        if type(x) not in (int, float) or not abs(x) <= sys.float_info.max:
            raise ValueError(f"{key} {x!r} is not a finite number in double range")
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


def _json_list(items: list[str], depth: int) -> str:
    """A JSON array of encoded items, laid out as ``json.dump(..., indent=1)``
    lays out one nested ``depth`` levels deep."""
    if not items:
        return "[]"
    inner = "\n" + " " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + " " * depth + "]"


_GRAPH = '{\n   "id": %s,\n   "labels": %s,\n   "edges": %s\n  }'
_EDGE = "[\n     %d,\n     %d\n    ]"
_PAIR = (
    '{\n   "i": %s,\n   "j": %s,\n   "ged": %d,\n   "nged": %s,\n   "sim": %s,\n'
    '   "split": %s\n  }'
)


class _Quoted(dict):
    """``_quote(s)`` by ``s``, computed once per string: each graph id and
    split recurs in many pairs."""

    def __missing__(self, s):
        text = self[s] = _quote(s)
        return text


class _NumberText(dict):
    """``repr(json_float(x))`` by ``x``, computed once per value: labels
    repeat a few hundred values over thousands of pairs. Values that compare
    equal (0.0 and -0.0, 1 and 1.0) have the same ``json_float``."""

    def __missing__(self, x):
        text = self[x] = repr(json_float(x))
        return text


def dataset_text(ds: Dataset) -> str:
    """The file layout of the module docstring, as ``json.dumps(doc,
    indent=1) + "\\n"`` writes it, filled into a template of the fixed schema.

    ``json`` lays out indented documents with its pure-Python encoder; the
    template writes the same bytes several times faster. Strings go through
    json's own ASCII escaper, integers through ``%d``, and numbers through
    ``repr(json_float(x))``, which is what ``json`` writes for the int or
    float ``json_float`` returns. The fields must have the types
    ``Dataset.validate`` checks.
    """
    quoted = _Quoted()
    graphs = [
        _GRAPH % (
            quoted[g.id],
            _json_list([str(lab) for lab in g.labels], 3),
            _json_list([_EDGE % (u, v) for u, v in sorted(g.edges)], 3),
        )
        for g in ds.graphs
    ]
    number = _NumberText()
    pairs = [
        _PAIR % (quoted[i], quoted[j], ged, number[nged], number[sim], quoted[split])
        for i, j, ged, nged, sim, split in ds.pairs
    ]
    return (
        f'{{\n "version": {_quote(SCHEMA_VERSION)},'
        f'\n "alphabet": {_json_list([_quote(sym) for sym in ds.alphabet], 1)},'
        f'\n "graphs": {_json_list(graphs, 1)},'
        f'\n "pairs": {_json_list(pairs, 1)}\n}}\n'
    )


def write_dataset(ds: Dataset, path) -> None:
    """Write ``ds`` as an indented JSON file; refuses a dataset that
    ``validate`` faults before it opens the file."""
    violations = ds.validate()
    if violations:
        raise DatasetFormatError("refusing to write: " + "; ".join(violations))
    text = dataset_text(ds)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_dataset(path) -> Dataset:
    return dataset_from_json(read_json(path, DatasetFormatError))
