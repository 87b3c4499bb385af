"""The dataset and checkpoint writers write what they wrote when every float
went through ``json.loads(format(x, ".17g"))`` before ``json.dump``."""

import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gedraft.dataset import (
    SPLITS,
    Dataset,
    DatasetFormatError,
    PairRecord,
    dataset_text,
    json_float,
    write_dataset,
)
from gedraft.autodiff import Tensor
from gedraft.graphs import Graph
from gedraft.model import ModelConfig, init_params, save_checkpoint
from gedraft.training import TrainConfig, train

# values on both sides of each branch of json_float, and at its edges
SPECIAL = [
    0.0, -0.0, 1.0, -3.0, 0.5, 1e16, -1e16, 1e17, -1e17, 9.999999999999998e16,
    1.0000000000000002e17, 2.0**53, 2.0**53 + 2, 5e-324, -5e-324,
    2.2250738585072014e-308, 1e-5, 1e-4, 0.1 + 0.2, 1e300, 123456789.0, 1.5e16 + 0.5,
]


def float17(x):
    """The writers' float conversion before json_float."""
    return json.loads(format(float(x), ".17g"))


@settings(max_examples=3000, deadline=None, derandomize=True)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(1e16)
@example(1e17)
@example(9.999999999999998e16)
@example(5e-324)
@example(2.0**53)
def test_json_float_equals_17_digit_round_trip(x):
    assert_same_as_float17(x)


def assert_same_as_float17(x):
    want, got = float17(x), json_float(x)
    assert type(got) is type(want)
    assert got == want
    assert json.dumps(got) == json.dumps(want)


@pytest.mark.parametrize("x", SPECIAL)
def test_json_float_on_special_values(x):
    assert_same_as_float17(x)
    assert_same_as_float17(np.float64(x))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_values_are_refused_on_write(bad, tiny_dataset, tmp_path):
    with pytest.raises(ValueError):
        json_float(bad)
    p = tiny_dataset.pairs[0]
    pairs = [PairRecord(p.i, p.j, p.ged, bad, p.sim, p.split)]
    with pytest.raises(DatasetFormatError):
        write_dataset(Dataset(tiny_dataset.alphabet, tiny_dataset.graphs, pairs), tmp_path / "d.json")
    cfg = ModelConfig(alphabet_size=3, hidden=4, layers=1)
    params = init_params(cfg)
    params["regressor.b3"].values[0] = bad
    with pytest.raises(FloatingPointError):
        save_checkpoint(params, cfg, tmp_path / "m.json")


def reference_dataset_doc(ds):
    return {
        "version": "1",
        "alphabet": list(ds.alphabet),
        "graphs": [
            {"id": g.id, "labels": list(g.labels), "edges": [[u, v] for u, v in sorted(g.edges)]}
            for g in ds.graphs
        ],
        "pairs": [
            {"i": p.i, "j": p.j, "ged": p.ged, "nged": float17(p.nged), "sim": float17(p.sim),
             "split": p.split}
            for p in ds.pairs
        ],
    }


def reference_dataset_bytes(ds, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference_dataset_doc(ds), fh, indent=1)
        fh.write("\n")
    return path.read_bytes()


def reference_checkpoint_bytes(params, cfg, path):
    def array(a):
        return {"shape": list(a.shape), "values": [float17(v) for v in a.reshape(-1)]}

    doc = {
        "version": "1",
        "config": cfg.to_json(),
        "params": {name: array(t.values) for name, t in sorted(params.items())},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
    return path.read_bytes()


def test_dataset_bytes_unchanged(tiny_dataset, tmp_path):
    # the labels include integral nged and sim (identical pairs: 0 and 1)
    assert any(p.ged == 0 for p in tiny_dataset.pairs)
    write_dataset(tiny_dataset, tmp_path / "new.json")
    assert (tmp_path / "new.json").read_bytes() == reference_dataset_bytes(
        tiny_dataset, tmp_path / "old.json"
    )


# strings with what JSON escapes: quotes, backslashes, control characters,
# DEL, non-ASCII, a line separator, an astral character and a lone surrogate
NASTY = st.text(
    st.sampled_from('a0"\\/\x00\x1f\x7f\t\n\u00e9\u2028\U0001f600\ud800') | st.characters(),
    max_size=6,
)


@st.composite
def graph_records(draw, ids, alphabet_size):
    """Graphs with the given ids; some have no edges."""
    graphs = []
    for gid in ids:
        n = draw(st.integers(1, 4))
        labels = draw(st.lists(st.integers(0, alphabet_size - 1), min_size=n, max_size=n))
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []
        graphs.append(Graph.make(gid, labels, edges))
    return graphs


# labels of a pair with ged 0: within the validation's 1e-12 of 0 and of 1
ZERO_NGED = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-13]
ONE_SIM = [1.0, 0.9999999999999999, 1.0000000000000002, 1 - 1e-13]


@st.composite
def valid_datasets(draw):
    alphabet = draw(st.lists(NASTY, min_size=1, max_size=4))
    ids = draw(st.lists(NASTY, max_size=5, unique=True))
    graphs = draw(graph_records(ids, len(alphabet)))
    pairs = []
    for _ in range(draw(st.integers(0, 8)) if graphs else 0):
        gi, gj = draw(st.sampled_from(graphs)), draw(st.sampled_from(graphs))
        ged = draw(st.integers(0, gi.n + gi.num_edges + gj.n + gj.num_edges))
        if ged == 0 and draw(st.booleans()):
            nged, sim = draw(st.sampled_from(ZERO_NGED)), draw(st.sampled_from(ONE_SIM))
        else:
            nged = ged / ((gi.n + gj.n) / 2)
            sim = math.exp(-nged)
        if draw(st.booleans()):
            nged, sim = np.float64(nged), np.float64(sim)
        pairs.append(PairRecord(gi.id, gj.id, ged, nged, sim, draw(st.sampled_from(SPLITS))))
    return Dataset(tuple(alphabet), graphs, pairs)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(valid_datasets())
@example(Dataset((), [], []))
@example(Dataset(("0",), [Graph.make("a", [0], [])], []))
def test_dataset_bytes_equal_json_dump_on_random_datasets(ds):
    assert not ds.validate()
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new.json", Path(tmp) / "old.json"
        write_dataset(ds, new)
        assert new.read_bytes() == reference_dataset_bytes(ds, old)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    valid_datasets(),
    st.lists(st.sampled_from(SPECIAL) | st.floats(allow_nan=False, allow_infinity=False),
             min_size=2, max_size=16),
    st.lists(st.integers(0, 10**30), min_size=1, max_size=8),
)
@example(  # every special value as nged and, negated, as sim
    Dataset(
        ("0",), [Graph.make("a", [0], [])], [PairRecord("a", "a", 0, 0, 1, "test")] * len(SPECIAL)
    ),
    SPECIAL,
    [0],
)
def test_dataset_text_equals_json_dump_on_any_numbers(ds, floats, geds):
    # labels that validation would refuse, so that every float the writer
    # may meet is covered: the template itself does not depend on them
    pairs = [
        PairRecord(p.i, p.j, geds[k % len(geds)], floats[k % len(floats)],
                   -floats[(k + 1) % len(floats)], p.split)
        for k, p in enumerate(ds.pairs)
    ]
    ds = Dataset(ds.alphabet, ds.graphs, pairs)
    want = io.StringIO()
    json.dump(reference_dataset_doc(ds), want, indent=1)
    assert dataset_text(ds) == want.getvalue() + "\n"


def test_checkpoint_bytes_unchanged(tiny_dataset, tmp_path):
    cfg = ModelConfig(alphabet_size=3, hidden=8, layers=1, seed=2)
    params, _ = train(cfg, TrainConfig(epochs=1, batch_size=32, validations=2), tiny_dataset)
    params["regressor.W1"].values.flat[: len(SPECIAL)] = SPECIAL
    save_checkpoint(params, cfg, tmp_path / "new.json")
    assert (tmp_path / "new.json").read_bytes() == reference_checkpoint_bytes(
        params, cfg, tmp_path / "old.json"
    )


FINITE = st.sampled_from(SPECIAL) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def named_arrays(draw):
    """Arrays under nasty names: 0-d, empty, and of up to three dimensions."""
    arrays = {}
    for name in draw(st.lists(NASTY, max_size=4, unique=True)):
        shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
        values = draw(st.lists(FINITE, min_size=math.prod(shape), max_size=math.prod(shape)))
        arrays[name] = np.array(values, dtype=np.float64).reshape(shape)
    return arrays


@settings(max_examples=200, deadline=None, derandomize=True)
@given(named_arrays())
def test_checkpoint_text_equals_json_dumps(arrays):
    # the streaming writer against the one-shot reference
    cfg = ModelConfig(alphabet_size=3, hidden=4, layers=1)
    params = {name: Tensor(a) for name, a in arrays.items()}
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new.json", Path(tmp) / "old.json"
        save_checkpoint(params, cfg, new)
        assert new.read_bytes() == reference_checkpoint_bytes(params, cfg, old)


def test_refused_checkpoint_leaves_the_file_alone(tmp_path):
    cfg = ModelConfig(alphabet_size=3, hidden=4, layers=1)
    params = init_params(cfg)
    path = tmp_path / "m.json"
    path.write_text("previous\n")
    params["regressor.b3"].values[0] = math.inf
    with pytest.raises(FloatingPointError):
        save_checkpoint(params, cfg, path)
    assert path.read_text() == "previous\n"
