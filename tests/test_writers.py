"""The dataset and checkpoint writers write what they wrote when every float
went through ``json.loads(format(x, ".17g"))`` before ``json.dump``."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gedraft.dataset import Dataset, DatasetFormatError, PairRecord, json_float, write_dataset
from gedraft.model import ModelConfig, init_params, save_checkpoint
from gedraft.optim import Adam
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
    with pytest.raises(ValueError):
        save_checkpoint(params, cfg, tmp_path / "m.json")


def reference_dataset_bytes(ds, path):
    doc = {
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return path.read_bytes()


def reference_checkpoint_bytes(params, cfg, state, path):
    def array(a):
        return {"shape": list(a.shape), "values": [float17(v) for v in a.reshape(-1)]}

    doc = {
        "version": "1",
        "config": cfg.to_json(),
        "params": {name: array(t.values) for name, t in sorted(params.items())},
        "optimizer": {
            "step": state["step"],
            "m": {k: array(v) for k, v in sorted(state["m"].items())},
            "v": {k: array(v) for k, v in sorted(state["v"].items())},
        },
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


def test_checkpoint_bytes_unchanged(tiny_dataset, tmp_path):
    cfg = ModelConfig(alphabet_size=3, hidden=8, layers=1, seed=2)
    params, _ = train(cfg, TrainConfig(epochs=1, batch_size=32, validations=2), tiny_dataset)
    opt = Adam(params)
    for t in params.values():
        t.grad = np.ones_like(t.values)
    opt.step()
    state = opt.state_dict()
    state["m"]["regressor.b3"] = np.array(SPECIAL)
    save_checkpoint(params, cfg, tmp_path / "new.json", optimizer_state=state)
    assert (tmp_path / "new.json").read_bytes() == reference_checkpoint_bytes(
        params, cfg, state, tmp_path / "old.json"
    )
