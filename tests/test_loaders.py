"""Fuzzing the three file loaders (graph, dataset, checkpoint): any JSON
value either loads or is refused with a ValueError, and the CLI answers
with exit code 0 or 2, never a traceback.

The documents are valid files with up to two places deleted or replaced by
arbitrary JSON, the whole document included, so that both the loaders'
checks and what runs after a successful load are reached.
"""

import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gedraft.cli import EXIT_OK, EXIT_USAGE, main, read_graph
from gedraft.dataset import SPLITS, DatasetFormatError, read_dataset, write_dataset
from gedraft.encoder import READOUTS
from gedraft.fusion import VARIANTS
from gedraft.graphs import Graph
from gedraft.model import (
    CheckpointError, ModelConfig, init_params, load_checkpoint, save_checkpoint,
)
from gedraft.synth import build_dataset

SETTINGS = settings(
    max_examples=250, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=10,
)
IDS = ("a", "b", "c")


@st.composite
def graph_records(draw, gid="g"):
    n = draw(st.integers(1, 6))
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    # edges may come reversed or repeated
    pool = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pool), max_size=2 * n)) if pool else []
    return {"id": gid, "labels": labels, "edges": [list(e) for e in edges]}


@st.composite
def dataset_docs(draw):
    graphs = [draw(graph_records(gid)) for gid in IDS]
    built = {rec["id"]: Graph.make(rec["id"], rec["labels"], rec["edges"]) for rec in graphs}
    pairs = []
    for _ in range(draw(st.integers(0, 8))):
        gi, gj = built[draw(st.sampled_from(IDS))], built[draw(st.sampled_from(IDS))]
        ged = draw(st.integers(0, gi.n + gi.num_edges + gj.n + gj.num_edges))
        d = ged / ((gi.n + gj.n) / 2)
        pairs.append({
            "i": gi.id, "j": gj.id, "ged": ged, "nged": d, "sim": math.exp(-d),
            "split": draw(st.sampled_from(SPLITS)),
        })
    return {"version": "1", "alphabet": ["x", "y", "z", "w"], "graphs": graphs, "pairs": pairs}


@st.composite
def checkpoint_docs(draw):
    cfg = ModelConfig(
        alphabet_size=3, hidden=2, layers=1, readout=draw(st.sampled_from(READOUTS)),
        fusion=draw(st.sampled_from(VARIANTS)), ntn_slices=2, seed=draw(st.integers(0, 3)),
    )
    params = init_params(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        save_checkpoint(params, cfg, path)
        return json.loads(path.read_text())


EVAL_DATASET, _ = build_dataset(
    n_graphs=10, n_min=3, n_max=5, p=0.4, alphabet_size=3, seed=1, pairs_per_graph=3
)


def places(doc, prefix=()):
    """The key or index path of every value in a JSON document."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from places(value, prefix + (key,))


@st.composite
def mutated(draw, valid):
    doc = draw(valid)
    for _ in range(draw(st.integers(0, 2))):
        place = draw(st.sampled_from(list(places(doc))))
        if not place:
            doc = draw(json_values)
            continue
        parent = doc
        for key in place[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[place[-1]]
        else:
            parent[place[-1]] = draw(json_values)
    return doc


def write_json(directory, name, doc) -> str:
    path = Path(directory) / name
    path.write_text(json.dumps(doc))
    return str(path)


@SETTINGS
@given(mutated(graph_records()))
def test_graph_files_load_or_exit_2(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_json(tmp, "g.json", doc)
        try:
            read_graph(path)
            loaded = True
        except ValueError:
            loaded = False
        # against a one-node graph the search is short whatever the file holds
        one = write_json(tmp, "one.json", {"id": "one", "labels": [0], "edges": []})
        for a, b in ((path, one), (one, path)):
            code = main(["ged", "--a", a, "--b", b])
            assert code == (EXIT_OK if loaded else EXIT_USAGE)


@SETTINGS
@given(mutated(dataset_docs()))
def test_dataset_files_load_or_exit_2(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_json(tmp, "ds.json", doc)
        try:
            read_dataset(path)
            loaded = True
        except ValueError:
            loaded = False
        code = main([
            "train", "--dataset", path, "--out", str(Path(tmp) / "m.json"),
            "--hidden", "2", "--layers", "1", "--epochs", "1", "--validations", "1",
            "--quiet",
        ])
        assert code in ((EXIT_OK, EXIT_USAGE) if loaded else (EXIT_USAGE,))


@SETTINGS
@given(mutated(checkpoint_docs()))
def test_checkpoint_files_load_or_exit_2(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_json(tmp, "m.json", doc)
        try:
            load_checkpoint(path)
            loaded = True
        except ValueError:
            loaded = False
        data = str(Path(tmp) / "ds.json")
        write_dataset(EVAL_DATASET, data)
        code = main(["eval", "--dataset", data, "--checkpoint", path])
        assert code in ((EXIT_OK, EXIT_USAGE) if loaded else (EXIT_USAGE,))


# a document nested past the recursion limit of any interpreter's JSON
# parser, and one that is not UTF-8, with the error each is refused with
UNREADABLE = pytest.mark.parametrize("content, message", [
    pytest.param(b"[" * 100_000 + b"]" * 100_000, "nested too deeply", id="deep"),
    pytest.param(b'{"id": "\xff"}', "byte 8: not UTF-8", id="not-utf-8"),
])


@UNREADABLE
@pytest.mark.parametrize(
    "load, error",
    [(read_graph, ValueError), (read_dataset, DatasetFormatError),
     (load_checkpoint, CheckpointError)],
)
def test_loaders_refuse_a_file_json_cannot_parse(tmp_path, load, error, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(error, match=f"^{re.escape(str(path))}: {message}$"):
        load(path)


@UNREADABLE
@pytest.mark.parametrize(
    "command",
    [
        "ged --a {bad} --b {graph}",
        "train --dataset {bad} --out {out}",
        "eval --dataset {bad} --checkpoint {model} --out {out}",
        "eval --dataset {data} --checkpoint {bad} --out {out}",
        "resat --dataset {bad} --checkpoint m={model} --out {out}",
        "resat --dataset {data} --checkpoint m={bad} --out {out}",
    ],
)
def test_commands_exit_2_on_a_file_json_cannot_parse(tmp_path, capsys, command, content, message):
    paths = {name: str(tmp_path / f"{name}.json") for name in ("bad", "graph", "data", "model", "out")}
    Path(paths["bad"]).write_bytes(content)
    Path(paths["graph"]).write_text(json.dumps({"id": "one", "labels": [0], "edges": []}))
    write_dataset(EVAL_DATASET, paths["data"])
    cfg = ModelConfig(alphabet_size=3, hidden=2, layers=1)
    save_checkpoint(init_params(cfg), cfg, paths["model"])
    code = main([arg.format(**paths) for arg in command.split()])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    # one error line and no traceback
    assert (captured.err, captured.out) == (f"error: {paths['bad']}: {message}\n", "")
    assert not Path(paths["out"]).exists()


def test_resat_names_the_checkpoint_of_another_version(tmp_path, capsys):
    # of two checkpoints, the refusal says which file is wrong
    data, good, v2, out = (str(tmp_path / f"{name}.json") for name in ("data", "good", "v2", "out"))
    write_dataset(EVAL_DATASET, data)
    cfg = ModelConfig(alphabet_size=3, hidden=2, layers=1)
    for path in (good, v2):
        save_checkpoint(init_params(cfg), cfg, path)
    doc = json.loads(Path(v2).read_text())
    doc["version"] = "2"
    Path(v2).write_text(json.dumps(doc))
    code = main(["resat", "--dataset", data, "--checkpoint", f"a={good}",
                 "--checkpoint", f"b={v2}", "--out", out])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert (captured.err, captured.out) == (
        f"error: {v2}: unknown checkpoint version '2'; expected '1'\n", "")
    assert not Path(out).exists()
