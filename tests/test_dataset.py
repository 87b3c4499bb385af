import json
import math

import numpy as np
import pytest

from gedraft.dataset import (
    Dataset,
    DatasetFormatError,
    PairRecord,
    dataset_from_json,
    dataset_to_json,
    read_dataset,
    write_dataset,
)
from gedraft.graphs import Graph


def make_pair(i, j, ged, ni, nj, split):
    d = ged / ((ni + nj) / 2)
    return PairRecord(i, j, ged, d, math.exp(-d), split)


@pytest.fixture
def small_ds():
    graphs = [
        Graph.make("a", [0, 1], [(0, 1)]),
        Graph.make("b", [0, 1, 2], [(0, 1), (1, 2)]),
        Graph.make("c", [2, 2], []),
    ]
    pairs = [
        make_pair("a", "b", 2, 2, 3, "train"),
        make_pair("b", "c", 4, 3, 2, "val"),
        make_pair("c", "a", 3, 2, 2, "test"),
    ]
    return Dataset(("C", "N", "O"), graphs, pairs)


def test_lookup_and_splits(small_ds):
    assert small_ds.graph("b").n == 3
    assert [p.i for p in small_ds.split_pairs("val")] == ["b"]
    assert small_ds.validate() == []


def test_roundtrip_bit_exact(small_ds, tmp_path):
    path = tmp_path / "ds.json"
    write_dataset(small_ds, path)
    back = read_dataset(path)
    assert back.alphabet == small_ds.alphabet
    assert back.graphs == small_ds.graphs
    # floats identical after a 17-significant-digit trip
    assert back.pairs == small_ds.pairs
    assert all(type(p) is PairRecord for p in back.pairs)


def test_pair_record_is_an_immutable_record_of_six_fields_in_order():
    rec = PairRecord("a", "b", 2, 0.8, math.exp(-0.8), "train")
    assert PairRecord._fields == ("i", "j", "ged", "nged", "sim", "split")
    assert tuple(rec) == ("a", "b", 2, 0.8, math.exp(-0.8), "train")
    for field in PairRecord._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert rec == PairRecord(*rec) and hash(rec) == hash(PairRecord(*rec))
    assert rec != rec._replace(ged=3)


def test_17g_float_roundtrip():
    # a value whose shortest repr needs all 17 digits
    x = 0.1 + 0.2
    assert json.loads(format(x, ".17g")) == x


def test_validate_detects_inconsistent_labels(small_ds):
    bad = Dataset(
        small_ds.alphabet,
        small_ds.graphs,
        [PairRecord("a", "b", 2, 0.8, 0.5, "train")],
    )
    violations = bad.validate()
    assert any("sim" in v for v in violations)


def test_validate_detects_unknown_graph(small_ds):
    bad = Dataset(small_ds.alphabet, small_ds.graphs, [make_pair("a", "zz", 1, 2, 2, "train")])
    assert any("unknown graph id" in v for v in bad.validate())


def test_validate_detects_bad_split(small_ds):
    bad = Dataset(small_ds.alphabet, small_ds.graphs, [make_pair("a", "b", 2, 2, 3, "dev")])
    assert any("split" in v for v in bad.validate())


def test_validate_detects_label_outside_alphabet(small_ds):
    bad = Dataset(("C",), small_ds.graphs, [])
    assert any("alphabet" in v for v in bad.validate())


def test_write_refuses_invalid(small_ds, tmp_path):
    bad = Dataset(small_ds.alphabet, small_ds.graphs, [PairRecord("a", "b", 2, 0.8, 0.5, "train")])
    with pytest.raises(DatasetFormatError):
        write_dataset(bad, tmp_path / "bad.json")


def _with_pair(ds, **fields):
    return Dataset(ds.alphabet, ds.graphs, [ds.pairs[0]._replace(**fields), *ds.pairs[1:]])


def _with_graph(ds, labels=None, edges=None):
    b = ds.graphs[1]
    g = Graph("b", b.labels if labels is None else labels, b.edges if edges is None else edges)
    return Dataset(ds.alphabet, [ds.graphs[0], g, ds.graphs[2]], ds.pairs)


@pytest.mark.parametrize(
    "edit, message",
    [
        # without the type checks, each of these was written as a file that
        # read_dataset refuses, left a truncated file when json.dump stopped
        # halfway, or made validate raise TypeError
        (lambda ds: _with_pair(ds, ged=True, nged=1 / 2.5, sim=math.exp(-1 / 2.5)),
         "pair 0: ged True is not an integer"),
        (lambda ds: _with_pair(ds, ged=np.int64(2)), "pair 0: ged .*2.* is not an integer"),
        (lambda ds: _with_pair(ds, ged=2.0), "pair 0: ged 2.0 is not an integer"),
        (lambda ds: _with_pair(ds, i=["a"]), r"pair 0: graph ids \['a'\], 'b' must be strings"),
        (lambda ds: _with_pair(ds, nged="0.8"), "pair 0: nged and sim must be numbers"),
        (lambda ds: _with_pair(ds, sim=None), "pair 0: nged and sim must be numbers"),
        # validate raised OverflowError on these
        (lambda ds: _with_pair(ds, nged=10**400), "pair 0: nged or sim beyond double range"),
        (lambda ds: _with_pair(ds, sim=10**400), "pair 0: nged or sim beyond double range"),
        (lambda ds: Dataset((0, 1, 2), ds.graphs, ds.pairs), "alphabet must be a list of strings"),
        (lambda ds: _with_graph(ds, labels=(0, True, 2)),
         "graph 'b': label True of node 1 is not a non-negative integer"),
        (lambda ds: _with_graph(ds, edges=((0, 1), (1, 2.0))),
         r"graph 'b': edge \(1,2.0\) endpoints are not both integers"),
        (lambda ds: _with_graph(ds, edges=((0, 1), (np.int64(1), 2))),
         r"graph 'b': edge \(.*1.*,2\) endpoints are not both integers"),
        (lambda ds: Dataset(ds.alphabet, [*ds.graphs, Graph(2, (0,), ())], ds.pairs),
         "graph id 2 is not a string"),
    ],
)
def test_write_refuses_what_read_refuses_before_opening_the_file(small_ds, tmp_path, edit, message):
    bad = edit(small_ds)
    path = tmp_path / "bad.json"
    with pytest.raises(DatasetFormatError, match=message):
        write_dataset(bad, path)
    assert not path.exists()


def test_unknown_version_rejected(small_ds):
    doc = dataset_to_json(small_ds)
    doc["version"] = "99"
    with pytest.raises(DatasetFormatError, match="version"):
        dataset_from_json(doc)


def test_missing_field_rejected(small_ds):
    doc = dataset_to_json(small_ds)
    del doc["graphs"]
    with pytest.raises(DatasetFormatError, match="graphs"):
        dataset_from_json(doc)


def test_malformed_graph_record_reports_index(small_ds):
    doc = dataset_to_json(small_ds)
    del doc["graphs"][1]["labels"]
    with pytest.raises(DatasetFormatError, match="graph 1"):
        dataset_from_json(doc)


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"version": "1",\n "alphabet": [,]}\n')
    with pytest.raises(DatasetFormatError, match="line 2"):
        read_dataset(path)


def test_edges_written_sorted(small_ds):
    doc = dataset_to_json(small_ds)
    for rec in doc["graphs"]:
        assert rec["edges"] == sorted(rec["edges"])


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(graphs=5), "graphs"),
        (lambda d: d.update(pairs={"a": 1}), "pairs"),
        (lambda d: d.update(alphabet="CNO"), "alphabet"),
        (lambda d: d.update(alphabet=[1, 2, 3]), "alphabet"),
        (lambda d: d["graphs"].__setitem__(0, [1, 2]), "graph 0"),
        (lambda d: d["graphs"][1]["labels"].__setitem__(0, 1.7), "graph 1"),
        (lambda d: d["graphs"][1]["labels"].__setitem__(0, True), "graph 1"),
        (lambda d: d["graphs"][1]["edges"].__setitem__(0, [0, 1.0]), "graph 1"),
        (lambda d: d["graphs"][1].update(id=["b"]), "graph 1"),
        (lambda d: d["pairs"].__setitem__(2, "c,a"), "pair 2"),
        (lambda d: d["pairs"][0].pop("sim"), "pair 0"),
        (lambda d: d["pairs"][0].update(i=["a"]), "pair 0"),
        (lambda d: d["pairs"][0].update(split=None), "pair 0"),
        (lambda d: d["pairs"][0].update(ged=2.0), "pair 0"),
        (lambda d: d["pairs"][0].update(ged=True), "pair 0"),
        (lambda d: d["pairs"][0].update(nged="0.8"), "pair 0"),
        (lambda d: d["pairs"][0].update(nged=math.nan, sim=math.nan), "pair 0"),
        (lambda d: d["pairs"][0].update(sim=math.inf), "pair 0"),
        (lambda d: d["pairs"][0].update(ged=-2, nged=-0.8, sim=math.exp(0.8)), "ged -2"),
        (lambda d: d["pairs"][0].update(ged=10**400), "outside"),
        (lambda d: d["pairs"][0].update(nged=10**400), "pair 0: malformed record \\(nged 1000"),
        (lambda d: d["pairs"][0].update(sim=-10**400), "pair 0: malformed record \\(sim -1000"),
        (lambda d: d["pairs"][0].update(nged=-1e308), "nged inconsistent"),
    ],
)
def test_malformed_documents_rejected(small_ds, edit, message):
    doc = json.loads(json.dumps(dataset_to_json(small_ds)))
    dataset_from_json(doc)
    edit(doc)
    with pytest.raises(DatasetFormatError, match=message):
        dataset_from_json(doc)


def test_integral_labels_load_as_floats(small_ds):
    doc = dataset_to_json(small_ds)
    doc["pairs"] = [{"i": "a", "j": "a", "ged": 0, "nged": 0, "sim": 1, "split": "train"}]
    (p,) = dataset_from_json(doc).pairs
    assert (type(p.nged), type(p.sim)) == (float, float)
