import dataclasses
import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gedraft import cli
from gedraft.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from gedraft.dataset import read_dataset
from gedraft.model import ModelConfig, load_checkpoint
from gedraft.training import TrainConfig


def write_graph(path, gid, labels, edges):
    path.write_text(json.dumps({"id": gid, "labels": labels, "edges": edges}))
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """gen + train once; downstream commands reuse the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    ds_path = root / "ds.json"
    assert (
        main(
            [
                "gen", "--n-graphs", "24", "--n-min", "4", "--n-max", "6",
                "--labels", "3", "--seed", "5", "--pairs-per-graph", "4",
                "--out", str(ds_path),
            ]
        )
        == EXIT_OK
    )
    ckpt = root / "model.json"
    history = root / "history.json"
    assert (
        main(
            [
                "train", "--dataset", str(ds_path), "--out", str(ckpt),
                "--history", str(history), "--hidden", "8", "--layers", "1",
                "--readout", "mean", "--fusion", "abs", "--epochs", "2",
                "--batch-size", "16", "--quiet",
            ]
        )
        == EXIT_OK
    )
    return {"root": root, "dataset": ds_path, "checkpoint": ckpt, "history": history}


def test_gen_output_is_valid_dataset(workspace):
    ds = read_dataset(workspace["dataset"])
    assert ds.validate() == []
    assert len(ds.graphs) == 24


def test_gen_prints_search_expansions(tmp_path, capsys):
    from gedraft.synth import build_dataset

    out = tmp_path / "ds.json"
    assert main(
        [
            "gen", "--n-graphs", "10", "--n-min", "5", "--n-max", "7", "--labels", "2",
            "--p", "0.5", "--seed", "3", "--budget", "40", "--out", str(out),
        ]
    ) == EXIT_OK
    _, report = build_dataset(
        n_graphs=10, n_min=5, n_max=7, p=0.5, alphabet_size=2, seed=3, budget=40
    )
    assert report.dropped_budget > 0
    line = capsys.readouterr().out.strip()
    assert line.endswith(f"({report.dropped_budget} dropped over budget), "
                         f"{report.expansions} search expansions"), line


# sha256 of the file below as json.dump(..., indent=1) wrote it: 24 graphs of
# 1 to 5 nodes, 12 of them without edges, and 153 pairs, some with integral
# nged and sim
GEN_PIN = "fc21d1a60932359e0e006c7eebb510fabf74e36ac43afcf76c2c830bfdbb8948"


def test_gen_output_bytes_are_pinned(tmp_path):
    out = tmp_path / "ds.json"
    assert main(
        [
            "gen", "--n-graphs", "24", "--n-min", "1", "--n-max", "5", "--labels", "3",
            "--p", "0.3", "--seed", "11", "--pairs-per-graph", "4", "--out", str(out),
        ]
    ) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GEN_PIN


def test_train_artifacts(workspace):
    params, cfg, _ = load_checkpoint(workspace["checkpoint"])
    assert cfg.hidden == 8 and cfg.fusion == "abs"
    report = json.loads(workspace["history"].read_text())
    assert report["resolved_config"]["model"]["readout"] == "mean"
    assert report["resolved_config"]["train"]["epochs"] == 2
    assert report["history"]["train_loss"]
    # the suite runs on the compiled kernels that conftest.py builds
    assert report["backends"] == {"ged": "c", "adam": "c"}


def test_config_file_with_flag_override(workspace, tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("[model]\nhidden = 8\nlayers = 1\nreadout = mean\nfusion = abs\n[train]\nepochs = 1\nbatch_size = 16\n")
    out = tmp_path / "m.json"
    code = main(
        [
            "train", "--dataset", str(workspace["dataset"]), "--out", str(out),
            "--config", str(cfg_file), "--fusion", "square", "--quiet",
        ]
    )
    assert code == EXIT_OK
    _, cfg, _ = load_checkpoint(out)
    assert cfg.fusion == "square"  # flag wins over file
    assert cfg.hidden == 8  # file value survives


def train_with(workspace, tmp_path, *flags, config=None):
    """Exit code of ``gedraft train`` on the workspace dataset, with a config
    file of the text ``config`` if it is given."""
    argv = ["train", "--dataset", str(workspace["dataset"]), "--out", str(tmp_path / "m.json"),
            "--history", str(tmp_path / "h.json"), "--quiet", *flags]
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv += ["--config", str(tmp_path / "run.cfg")]
    return main(argv)


def test_config_file_with_only_a_train_section(workspace, tmp_path):
    assert train_with(
        workspace, tmp_path, "--hidden", "8", "--layers", "1", "--fusion", "abs",
        config="[train]\nepochs = 1\nbatch_size = 16\n",
    ) == EXIT_OK
    report = json.loads((tmp_path / "h.json").read_text())["resolved_config"]
    assert report["model"]["hidden"] == 8 and report["train"]["epochs"] == 1


# a value other than the default for every field that a config file sets;
# a new field must be added here, and so be shown to reach the run
FILE_VALUES = {
    "model": {"hidden": 6, "layers": 1, "readout": "sum", "fusion": "ntn", "temperature": 0.25,
              "ntn_slices": 3, "efn_reduction": 2, "seed": 5},
    "train": {"epochs": 1, "batch_size": 8, "lr": 0.004, "validations": 2, "val_window": 0.75,
              "seed": 9},
}


def test_every_config_field_is_set_from_the_file(workspace, tmp_path):
    for section, defaults in (("model", ModelConfig(alphabet_size=3)), ("train", TrainConfig())):
        fields = {f.name for f in dataclasses.fields(defaults)} - {"alphabet_size"}
        assert set(FILE_VALUES[section]) == fields
        for key, value in FILE_VALUES[section].items():
            assert getattr(defaults, key) != value, key
    text = "".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in values.items())
        for section, values in FILE_VALUES.items()
    )
    assert train_with(workspace, tmp_path, config=text) == EXIT_OK
    report = json.loads((tmp_path / "h.json").read_text())["resolved_config"]
    assert report["model"] == {"alphabet_size": 3, **FILE_VALUES["model"]}
    assert report["train"] == FILE_VALUES["train"]


@pytest.fixture
def no_training(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(cli, "train", refuse)


@pytest.mark.parametrize(
    "flags, config, message",
    [
        (["--temperature", "inf"], None, "temperature"),
        (["--temperature", "nan"], None, "temperature"),
        (["--temperature", "0"], None, "temperature"),
        ([], "[model]\ntemperature = inf\n", "temperature"),
        (["--lr", "-5"], None, "lr"),
        (["--lr", "0"], None, "lr"),
        (["--lr", "nan"], None, "lr"),
        ([], "[train]\nlr = inf\n", "lr"),
        # malformed files
        ([], "hidden = 8\n", "no section headers"),
        ([], "[train]\nlr = 0.1\nlr = 0.2\n", "already exists"),
        ([], "[train]\n[train]\n", "already exists"),
        ([], "[model]\nreadout = %(x)s\n", "readout"),
        ([], "[DEFAULT]\nseed = 4\n", "DEFAULT"),
    ],
    ids=["temperature-inf", "temperature-nan", "temperature-0", "file-temperature-inf",
         "lr-negative", "lr-0", "lr-nan", "file-lr-inf", "no-section-header",
         "duplicate-option", "duplicate-section", "interpolation", "default-section"],
)
def test_train_refuses_bad_config_before_training(
    workspace, tmp_path, capsys, no_training, flags, config, message
):
    assert train_with(workspace, tmp_path, *flags, config=config) == EXIT_USAGE
    assert not (tmp_path / "m.json").exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_gradcheck_last_line_names_no_backend(monkeypatch, capsys):
    # the full model at small widths, so that the check takes a second, not ten
    small = functools.partial(cli.full_model_gradcheck, hidden=4, layers=1)
    monkeypatch.setattr(cli, "full_model_gradcheck", small)
    assert main(["gradcheck"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "all operators below 0.0001"


def test_eval_writes_report(workspace, tmp_path, capsys):
    out = tmp_path / "eval.json"
    code = main(
        [
            "eval", "--dataset", str(workspace["dataset"]),
            "--checkpoint", str(workspace["checkpoint"]),
            "--k", "3", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert "3" in doc["metrics"]["p_at"]
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed == doc["metrics"]


def test_resat_command(workspace, tmp_path, capsys):
    out = tmp_path / "resat.json"
    code = main(
        [
            "resat", "--dataset", str(workspace["dataset"]),
            "--checkpoint", f"abs={workspace['checkpoint']}",
            "--per-graph", "4", "--probe-epochs", "20", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["report"]["rows"][0]["variant"] == "abs"
    assert "RESAT" in capsys.readouterr().out


def test_ged_command(tmp_path, capsys):
    a = write_graph(tmp_path / "a.json", "a", [0, 1], [[0, 1]])
    b = write_graph(tmp_path / "b.json", "b", [0, 2], [[0, 1]])
    assert main(["ged", "--a", a, "--b", b]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["cost"] == 1


# Runs the gedraft command in a fresh interpreter, then reports the BLAS
# variables it left and the thread count OpenBLAS reports, if it can be found.
BLAS_CHILD = """
import ctypes, json, os, sys
from gedraft.__main__ import BLAS_THREAD_VARS, main
assert "numpy" not in sys.modules
code = main(sys.argv[1:])
threads = None
with open("/proc/self/maps", encoding="utf-8") as fh:
    libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
syms = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
        "openblas_get_num_threads")
for lib in map(ctypes.CDLL, libs):
    fns = [getattr(lib, sym) for sym in syms if hasattr(lib, sym)]
    if fns and threads is None:
        threads = fns[0]()
env = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
print(json.dumps({"code": code, "env": env, "threads": threads}))
"""


def run_blas_child(tmp_path, **env_vars):
    a = write_graph(tmp_path / "a.json", "a", [0, 1], [[0, 1]])
    b = write_graph(tmp_path / "b.json", "b", [0, 2], [[0, 1]])
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    env.update(env_vars)
    out = subprocess.run(
        [sys.executable, "-c", BLAS_CHILD, "ged", "--a", a, "--b", b],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps")
def test_command_defaults_blas_to_one_thread(tmp_path):
    doc = run_blas_child(tmp_path)
    assert doc["code"] == EXIT_OK
    assert doc["env"] == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"
    }
    assert doc["threads"] in (None, 1)


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps")
def test_command_keeps_the_users_blas_threads(tmp_path):
    doc = run_blas_child(tmp_path, OMP_NUM_THREADS="2")
    assert doc["code"] == EXIT_OK
    assert doc["env"] == {
        "OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None
    }
    if doc["threads"] is not None:
        assert doc["threads"] == min(2, len(os.sched_getaffinity(0)))


def test_ged_budget_exhausted_is_numeric_failure(tmp_path, capsys):
    a = write_graph(tmp_path / "a.json", "a", [0] * 8, [[u, u + 1] for u in range(7)])
    b = write_graph(tmp_path / "b.json", "b", [0] * 8, [[0, v] for v in range(1, 8)])
    assert main(["ged", "--a", a, "--b", b, "--budget", "2"]) == EXIT_NUMERIC


def test_ged_rejects_negative_label(tmp_path, capsys):
    a = write_graph(tmp_path / "a.json", "a", [0, -1], [[0, 1]])
    b = write_graph(tmp_path / "b.json", "b", [0, 1], [[0, 1]])
    assert main(["ged", "--a", a, "--b", b]) == EXIT_USAGE
    assert "non-negative integer" in capsys.readouterr().err


def test_usage_errors_exit_2(workspace, tmp_path, capsys):
    assert main(["ged", "--a", "missing.json", "--b", "missing.json"]) == EXIT_USAGE
    assert (
        main(["eval", "--dataset", str(workspace["dataset"]), "--checkpoint", "nope.json"])
        == EXIT_USAGE
    )
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("[model]\nwidth = 3\n")
    assert (
        main(
            [
                "train", "--dataset", str(workspace["dataset"]),
                "--out", str(tmp_path / "x.json"), "--config", str(bad_cfg), "--quiet",
            ]
        )
        == EXIT_USAGE
    )
    assert (
        main(
            [
                "resat", "--dataset", str(workspace["dataset"]),
                "--checkpoint", "missing-equals-sign",
            ]
        )
        == EXIT_USAGE
    )


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"id": "a", "labels": [0, 1]}, "edges"),
        ([0, 1], "object"),
        ({"id": "a", "labels": [0, 1.7], "edges": []}, "labels"),
        ({"id": "a", "labels": [0, True], "edges": []}, "labels"),
    ],
)
def test_ged_rejects_malformed_graph_file(tmp_path, capsys, doc, message):
    a = tmp_path / "a.json"
    a.write_text(json.dumps(doc))
    b = write_graph(tmp_path / "b.json", "b", [0, 1], [[0, 1]])
    assert main(["ged", "--a", str(a), "--b", b]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(a) in err and message in err


def test_train_rejects_malformed_dataset(tmp_path, capsys):
    path = tmp_path / "ds.json"
    path.write_text(json.dumps({"version": "1", "alphabet": ["C"], "graphs": 5, "pairs": []}))
    code = main(["train", "--dataset", str(path), "--out", str(tmp_path / "m.json"), "--quiet"])
    assert code == EXIT_USAGE
    assert "graphs" in capsys.readouterr().err


@pytest.fixture(scope="module")
def two_symbol_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli2") / "ds2.json"
    assert main(
        [
            "gen", "--n-graphs", "12", "--n-min", "4", "--n-max", "6",
            "--labels", "2", "--seed", "6", "--pairs-per-graph", "4", "--out", str(path),
        ]
    ) == EXIT_OK
    assert len(read_dataset(path).alphabet) == 2
    return path


def test_eval_rejects_checkpoint_of_another_alphabet(workspace, two_symbol_dataset, capsys):
    code = main(
        ["eval", "--dataset", str(two_symbol_dataset), "--checkpoint", str(workspace["checkpoint"])]
    )
    assert code == EXIT_USAGE
    assert "3 label symbols" in capsys.readouterr().err


def test_resat_rejects_checkpoint_of_another_alphabet(workspace, two_symbol_dataset, capsys):
    code = main(
        [
            "resat", "--dataset", str(two_symbol_dataset),
            "--checkpoint", f"abs={workspace['checkpoint']}", "--probe-epochs", "2",
        ]
    )
    assert code == EXIT_USAGE
    assert "3 label symbols" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["0", "-1"])
def test_eval_rejects_k_below_one(workspace, capsys, k):
    code = main(
        [
            "eval", "--dataset", str(workspace["dataset"]),
            "--checkpoint", str(workspace["checkpoint"]), "--k", k,
        ]
    )
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert "k >= 1" in captured.err and captured.out == ""


def test_eval_defaults_to_p_at_10_and_20(workspace, monkeypatch):
    seen = []

    def recording_evaluate(params, cfg, dataset, ks):
        seen.append(ks)
        raise ValueError("stop here")

    monkeypatch.setattr(cli, "evaluate", recording_evaluate)
    args = ["eval", "--dataset", str(workspace["dataset"]),
            "--checkpoint", str(workspace["checkpoint"])]
    assert main(args) == EXIT_USAGE
    assert main(args + ["--k", "3"]) == EXIT_USAGE
    assert seen == [(10, 20), (3,)]


@pytest.fixture
def no_probing(monkeypatch):
    """Fails the test if a RESAT probe starts."""
    from gedraft import resat

    def probe(*args, **kwargs):
        raise AssertionError("a probe ran")

    monkeypatch.setattr(resat, "resat_probe", probe)


def test_resat_refuses_zero_probe_seeds(workspace, tmp_path, capsys, no_probing):
    out = tmp_path / "resat.json"
    code = main(
        [
            "resat", "--dataset", str(workspace["dataset"]),
            "--checkpoint", f"abs={workspace['checkpoint']}", "--per-graph", "4",
            "--probe-seeds", "0", "--out", str(out),
        ]
    )
    assert code == EXIT_USAGE
    assert "no probe seeds" in capsys.readouterr().err
    assert not out.exists()


def test_resat_refuses_zero_probe_epochs(workspace, tmp_path, capsys):
    out = tmp_path / "resat.json"
    code = main(
        [
            "resat", "--dataset", str(workspace["dataset"]),
            "--checkpoint", f"abs={workspace['checkpoint']}", "--per-graph", "4",
            "--probe-epochs", "0", "--out", str(out),
        ]
    )
    assert code == EXIT_USAGE
    assert "at least 1 probe epoch" in capsys.readouterr().err
    assert not out.exists()


def test_eval_of_a_directory_exits_2(workspace, tmp_path, capsys):
    code = main(
        ["eval", "--dataset", str(tmp_path), "--checkpoint", str(workspace["checkpoint"])]
    )
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert str(tmp_path) in captured.err and "Traceback" not in captured.err
