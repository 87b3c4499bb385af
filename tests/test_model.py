import contextlib
import json

import numpy as np
import pytest

import composed
from gedraft.autodiff import backward
from gedraft.graphs import SplitMix64, generate_er, permute
from gedraft.model import (
    CheckpointError,
    ModelConfig,
    batch_loss,
    copy_params,
    forward,
    forward_pairs,
    init_params,
    load_checkpoint,
    params_equal,
    save_checkpoint,
)

CFG = ModelConfig(alphabet_size=3, hidden=8, layers=2, readout="gca", fusion="diffatt", seed=0)


def some_graphs(count, seed0=0):
    return [generate_er(4 + t % 3, 0.5, 3, seed=seed0 + t, gid=f"g{t}") for t in range(count)]


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(alphabet_size=0)
    with pytest.raises(ValueError):
        ModelConfig(alphabet_size=3, readout="nope")
    with pytest.raises(ValueError):
        ModelConfig(alphabet_size=3, fusion="nope")
    for temperature in (-1.0, 0.0, float("inf"), float("nan"), 10**400):
        with pytest.raises(ValueError, match="temperature"):
            ModelConfig(alphabet_size=3, temperature=temperature)


@pytest.mark.parametrize("temperature", ["learnable", 0.5])
def test_fused_model_matches_composed_bit_for_bit(temperature):
    cfg = ModelConfig(alphabet_size=3, hidden=8, layers=2, readout="gca", fusion="diffatt",
                      temperature=temperature, seed=4)
    graphs = [generate_er(n, 0.5, 3, seed=n, gid=f"g{n}") for n in (1, 5, 3, 6, 4)]
    pairs = [(graphs[0], graphs[1]), (graphs[2], graphs[3]), (graphs[4], graphs[0])]
    results = []
    for blocks in (contextlib.nullcontext, composed.composed_model):
        params = init_params(cfg)
        with blocks():
            loss = batch_loss(pairs, [0.2, 0.5, 0.9], params, cfg)
            backward(loss)
        results.append([loss.values.tobytes()] + [params[n].grad.tobytes() for n in sorted(params)])
    assert results[0] == results[1]


def test_config_json_roundtrip_and_unknown_keys():
    doc = CFG.to_json()
    assert ModelConfig.from_json(doc) == CFG
    doc["mystery"] = 1
    with pytest.raises(ValueError, match="mystery"):
        ModelConfig.from_json(doc)


def test_fused_dim_per_variant():
    base = dict(alphabet_size=3, hidden=8, layers=2)
    assert ModelConfig(fusion="diffatt", **base).fused_dim == 3 * 16
    assert ModelConfig(fusion="abs", **base).fused_dim == 3 * 8
    assert ModelConfig(fusion="ntn", ntn_slices=4, **base).fused_dim == 3 * 4


def test_init_params_deterministic():
    assert params_equal(init_params(CFG), init_params(CFG))
    other = ModelConfig(**{**CFG.to_json(), "seed": 1})
    assert not params_equal(init_params(CFG), init_params(other))


def test_forward_deterministic_and_batched_consistent():
    params = init_params(CFG)
    gs = some_graphs(6)
    pairs = [(gs[0], gs[1]), (gs[2], gs[3]), (gs[4], gs[5]), (gs[0], gs[5])]
    batched = forward_pairs(pairs, params, CFG).values
    singles = [forward(a, b, params, CFG) for a, b in pairs]
    assert np.allclose(batched, singles, atol=1e-12)


def test_forward_permutation_invariance():
    params = init_params(CFG)
    rng = SplitMix64(9)
    g1, g2 = some_graphs(2, seed0=40)
    base = forward(g1, g2, params, CFG)
    for _ in range(5):
        pi = list(range(g1.n))
        rng.shuffle(pi)
        assert forward(permute(g1, pi), g2, params, CFG) == pytest.approx(base, rel=1e-8)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    params = init_params(CFG)
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, CFG, path)
    loaded, cfg, opt = load_checkpoint(path)
    assert cfg == CFG
    assert opt is None
    assert params_equal(params, loaded)


def test_checkpoint_optimizer_state_roundtrip(tmp_path):
    from gedraft.optim import Adam

    params = init_params(CFG)
    opt = Adam(params)
    state = opt.state_dict()
    state["m"]["regressor.W1"][:] = 0.125
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, CFG, path, optimizer_state=state)
    _, _, loaded = load_checkpoint(path)
    assert loaded["step"] == 0
    assert np.array_equal(loaded["m"]["regressor.W1"], state["m"]["regressor.W1"])


def test_checkpoint_rejects_bad_version(tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(init_params(CFG), CFG, path)
    doc = json.loads(path.read_text())
    doc["version"] = "0"
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_rejects_missing_and_extra_params(tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(init_params(CFG), CFG, path)
    doc = json.loads(path.read_text())
    moved = doc["params"].pop("regressor.W1")
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="regressor.W1"):
        load_checkpoint(path)
    doc["params"]["regressor.W1"] = moved
    doc["params"]["bogus"] = moved
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="bogus"):
        load_checkpoint(path)


def test_checkpoint_rejects_wrong_shape(tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(init_params(CFG), CFG, path)
    doc = json.loads(path.read_text())
    doc["params"]["regressor.b3"]["shape"] = [2]
    doc["params"]["regressor.b3"]["values"] = [0.0, 0.0]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="shape"):
        load_checkpoint(path)


def test_checkpoint_rejects_malformed_json(tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_text("{not json")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


DROP = object()
SCALAR = {"shape": [], "values": [0]}


def _edit(*path, value=DROP):
    """An edit that replaces the value at ``path``, or deletes it."""
    def edit(doc):
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        return doc

    return edit


MALFORMED_CHECKPOINTS = {
    "not an object": lambda doc: [1],
    "version only": lambda doc: {"version": "1"},
    "no config": _edit("config"),
    "no params": _edit("params"),
    "config not an object": _edit("config", value=[3]),
    "no alphabet size": _edit("config", "alphabet_size"),
    "string width": _edit("config", "hidden", value="x"),
    "float width": _edit("config", "hidden", value=4.0),
    "boolean width": _edit("config", "hidden", value=True),
    "list temperature": _edit("config", "temperature", value=[1.0]),
    "zero efn reduction": _edit("config", "efn_reduction", value=0),
    "negative seed": _edit("config", "seed", value=-1),
    # must be refused before init_params allocates a (1e6, 1e6) matrix
    "huge width": _edit("config", "hidden", value=10**6),
    "huge layer count": _edit("config", "layers", value=10**6),
    "record without values": _edit("params", "regressor.b3", "values"),
    "string shape": _edit("params", "regressor.b3", "shape", value="1"),
    "negative dimension": _edit("params", "regressor.b3", "shape", value=[-1]),
    "value count off": _edit("params", "regressor.b3", "values", value=[0.0, 0.0]),
    "string value": _edit("params", "regressor.b3", "values", value=["0"]),
    "non-finite value": _edit("params", "regressor.b3", "values", value=[float("nan")]),
    "value beyond double range": _edit("params", "regressor.b3", "values", value=[10**400]),
    "record not an object": _edit("params", "regressor.b3", value=0),
    "optimizer without moments": _edit("optimizer", value={"step": 0}),
    "optimizer with boolean step": _edit("optimizer", "step", value=True),
    "optimizer moment missing": _edit("optimizer", "m", "regressor.b3"),
    "optimizer moment misshapen": _edit("optimizer", "v", "regressor.b3", value=SCALAR),
    "optimizer moment extra": _edit("optimizer", "m", "bogus", value=SCALAR),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CHECKPOINTS))
def test_checkpoint_rejects_malformed_documents(tmp_path, name):
    from gedraft.optim import Adam

    params = init_params(CFG)
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, CFG, path, optimizer_state=Adam(params).state_dict())
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(MALFORMED_CHECKPOINTS[name](doc)))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "text", ["1e400", "Infinity", "NaN", "0", "-1", pytest.param("1" + "0" * 400, id="10**400")]
)
def test_checkpoint_rejects_temperature_out_of_range(tmp_path, text):
    path = tmp_path / "ckpt.json"
    save_checkpoint(init_params(CFG), CFG, path)
    doc = json.loads(path.read_text())
    doc["config"]["temperature"] = "TEMPERATURE"
    path.write_text(json.dumps(doc).replace('"TEMPERATURE"', text))
    with pytest.raises(CheckpointError, match="temperature"):
        load_checkpoint(path)


def test_copy_params_is_deep():
    params = init_params(CFG)
    clone = copy_params(params)
    clone["regressor.b3"].values += 1.0
    assert not params_equal(params, clone)
