import contextlib
import hashlib
import json

import numpy as np
import pytest

import composed
from gedraft import model
from gedraft.autodiff import backward
from gedraft.graphs import SplitMix64, generate_er, permute
from gedraft.model import (
    CheckpointError,
    ModelConfig,
    batch_loss,
    copy_params,
    forward_pairs,
    init_params,
    load_checkpoint,
    params_equal,
    predict,
    save_checkpoint,
)
from gedraft.training import validation_loss

CFG = ModelConfig(alphabet_size=3, hidden=8, layers=2, readout="gca", fusion="diffatt", seed=0)


def some_graphs(count, seed0=0):
    return [generate_er(4 + t % 3, 0.5, 3, seed=seed0 + t, gid=f"g{t}") for t in range(count)]


def test_config_validation():
    # ModelConfig is the one check of the model's options: the encoder and
    # fusion inits, encode_graphs and fuse take it as given
    for bad in (dict(alphabet_size=0), dict(hidden=0), dict(layers=0)):
        with pytest.raises(ValueError, match=">= 1"):
            ModelConfig(**{"alphabet_size": 3, **bad})
    with pytest.raises(ValueError, match="seed"):
        ModelConfig(alphabet_size=3, seed=-1)
    with pytest.raises(ValueError, match="readout"):
        ModelConfig(alphabet_size=3, readout="nope")
    with pytest.raises(ValueError, match="fusion"):
        ModelConfig(alphabet_size=3, fusion="nope")
    for temperature in (-1.0, 0.0, float("inf"), float("nan"), 10**400):
        with pytest.raises(ValueError, match="temperature"):
            ModelConfig(alphabet_size=3, temperature=temperature)
    for bad in (dict(ntn_slices=0), dict(efn_reduction=0)):
        with pytest.raises(ValueError, match="ntn_slices and efn_reduction"):
            ModelConfig(alphabet_size=3, fusion="ntn", **bad)
    assert ModelConfig(alphabet_size=3, temperature=1e6).temperature == 1e6
    # each field holds its annotation's type: an int field exactly an int, a
    # temperature other than "learnable" an int or a float, never a bool
    for bad in (dict(hidden=2.5), dict(hidden=True), dict(layers="3"), dict(seed=None),
                dict(alphabet_size=3.0), dict(readout=["gca"]), dict(fusion=1),
                dict(temperature=True), dict(temperature="hot"), dict(temperature=None)):
        with pytest.raises(ValueError):
            ModelConfig(**{"alphabet_size": 3, **bad})
    assert ModelConfig(alphabet_size=3, temperature=2).temperature == 2


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


# sha256 over each parameter's name, shape and value bytes, in the order
# init_params makes them, for hidden 6, 2 layers, alphabet 3, 3 ntn slices,
# efn reduction 2 and seed 7. They pin the RNG draw order and the names.
INIT_DIGESTS = {
    ("diffatt", "mean", "learnable"): "3ee4b57db1bca3a6ce8792d96b9d911a5463e63c1f4afc1f9650022eebcf02b5",
    ("diffatt", "max", "learnable"): "3ee4b57db1bca3a6ce8792d96b9d911a5463e63c1f4afc1f9650022eebcf02b5",
    ("diffatt", "sum", "learnable"): "3ee4b57db1bca3a6ce8792d96b9d911a5463e63c1f4afc1f9650022eebcf02b5",
    ("diffatt", "gca", "learnable"): "bf9f79ddc2d4ffdd33fb4850f5ef4bc6b832df623cafc2c86936d894dcb0b85b",
    ("ntn", "mean", "learnable"): "831e91827a1ef029ad6d958305c21995be0062bd956c64dcc3ecab4cef4e068c",
    ("ntn", "max", "learnable"): "831e91827a1ef029ad6d958305c21995be0062bd956c64dcc3ecab4cef4e068c",
    ("ntn", "sum", "learnable"): "831e91827a1ef029ad6d958305c21995be0062bd956c64dcc3ecab4cef4e068c",
    ("ntn", "gca", "learnable"): "b311ee0254c513e3ef04ae5cc6672fa9f52d2b1c80ba3b2bda84e8b34fbec9ec",
    ("efn", "mean", "learnable"): "74b9c66ba02be763aed7df57b60c321c1fd879a8e5f8a71d5d9ea440b921ccb8",
    ("efn", "max", "learnable"): "74b9c66ba02be763aed7df57b60c321c1fd879a8e5f8a71d5d9ea440b921ccb8",
    ("efn", "sum", "learnable"): "74b9c66ba02be763aed7df57b60c321c1fd879a8e5f8a71d5d9ea440b921ccb8",
    ("efn", "gca", "learnable"): "92a7ca73ce6e02fa57c0247c222f4f01f75d0ca6b7a58f53a0961c168ed7ebfa",
    ("abs", "mean", "learnable"): "1d21e366b262d7a59afb1156f5f094ce525874da29b29b7a33b246ad0701ef50",
    ("abs", "max", "learnable"): "1d21e366b262d7a59afb1156f5f094ce525874da29b29b7a33b246ad0701ef50",
    ("abs", "sum", "learnable"): "1d21e366b262d7a59afb1156f5f094ce525874da29b29b7a33b246ad0701ef50",
    ("abs", "gca", "learnable"): "667e06b6ac44369224121a639fb5979a7801ac38991c651e9886168833cba23a",
    ("square", "mean", "learnable"): "1d21e366b262d7a59afb1156f5f094ce525874da29b29b7a33b246ad0701ef50",
    ("square", "max", "learnable"): "1d21e366b262d7a59afb1156f5f094ce525874da29b29b7a33b246ad0701ef50",
    ("square", "sum", "learnable"): "1d21e366b262d7a59afb1156f5f094ce525874da29b29b7a33b246ad0701ef50",
    ("square", "gca", "learnable"): "667e06b6ac44369224121a639fb5979a7801ac38991c651e9886168833cba23a",
    ("none", "mean", "learnable"): "be6099ffe0f2825e02461b0c5f105e8f9d7021f8aa9a437cbdf0fb4bf1bb2540",
    ("none", "max", "learnable"): "be6099ffe0f2825e02461b0c5f105e8f9d7021f8aa9a437cbdf0fb4bf1bb2540",
    ("none", "sum", "learnable"): "be6099ffe0f2825e02461b0c5f105e8f9d7021f8aa9a437cbdf0fb4bf1bb2540",
    ("none", "gca", "learnable"): "dd746b55edaf8e8d92ea45238c8f9ae68b39cf74139d26b7c027145b1e850f71",
    ("diffatt", "mean", 0.5): "9737db58795b7c908d409622727b0b10fdd8bcd50e31c3c24973daf1b355aef0",
    ("diffatt", "max", 0.5): "9737db58795b7c908d409622727b0b10fdd8bcd50e31c3c24973daf1b355aef0",
    ("diffatt", "sum", 0.5): "9737db58795b7c908d409622727b0b10fdd8bcd50e31c3c24973daf1b355aef0",
    ("diffatt", "gca", 0.5): "40da96beda43b077bf311aa332c5e40afe9106ae7775be0bf0b227c89c8a7a95",
}


@pytest.mark.parametrize("fusion, readout, temperature", sorted(INIT_DIGESTS, key=str))
def test_init_params_digest_is_pinned(fusion, readout, temperature):
    cfg = ModelConfig(alphabet_size=3, hidden=6, layers=2, readout=readout, fusion=fusion,
                      temperature=temperature, ntn_slices=3, efn_reduction=2, seed=7)
    h = hashlib.sha256()
    for name, t in init_params(cfg).items():
        h.update(name.encode() + b"\0" + repr(t.values.shape).encode() + b"\0" + t.values.tobytes())
    assert h.hexdigest() == INIT_DIGESTS[fusion, readout, temperature]


def test_forward_deterministic_and_batched_consistent():
    params = init_params(CFG)
    gs = some_graphs(6)
    pairs = [(gs[0], gs[1]), (gs[2], gs[3]), (gs[4], gs[5]), (gs[0], gs[5])]
    batched = forward_pairs(pairs, params, CFG).values
    singles = [predict([pair], params, CFG)[0] for pair in pairs]
    assert np.allclose(batched, singles, atol=1e-12)


def test_predict_builds_no_tape_and_matches_a_taped_run(tiny_dataset, monkeypatch):
    from gedraft import metrics

    pair_list = tiny_dataset.split_pairs("test")
    pairs = [(tiny_dataset.graph(p.i), tiny_dataset.graph(p.j)) for p in pair_list]
    params = init_params(CFG)
    outputs = []

    def recorded(*args):
        outputs.append(forward_pairs(*args))
        return outputs[-1]

    monkeypatch.setattr(model, "forward_pairs", recorded)
    monkeypatch.setattr(model, "PREDICT_CHUNK", 50)
    preds = predict(pairs, params, CFG)
    assert len(outputs) == -(-len(pairs) // 50) > 1
    assert not any(o.requires_grad or o._parents for o in outputs)
    assert all(t.grad is None for t in params.values())
    # the same chunks with the tape on give the same bits
    outputs.clear()
    monkeypatch.setattr(model, "frozen", lambda p: p)
    taped = predict(pairs, params, CFG)
    assert all(o.requires_grad for o in outputs)
    assert taped.tobytes() == preds.tobytes()
    # validation and evaluation score through it
    monkeypatch.undo()
    preds = predict(pairs, params, CFG)
    assert metrics.predict_pairs(pair_list, tiny_dataset, params, CFG).tobytes() == preds.tobytes()
    sims = np.asarray([p.sim for p in pair_list])
    assert validation_loss(params, CFG, pairs, sims) == float(((preds - sims) ** 2).mean())


def test_forward_permutation_invariance():
    params = init_params(CFG)
    rng = SplitMix64(9)
    g1, g2 = some_graphs(2, seed0=40)
    base = predict([(g1, g2)], params, CFG)[0]
    for _ in range(5):
        pi = list(range(g1.n))
        rng.shuffle(pi)
        assert predict([(permute(g1, pi), g2)], params, CFG)[0] == pytest.approx(base, rel=1e-8)


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
