import contextlib
import dataclasses
import functools
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gedraft import cli
from gedraft.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from gedraft.dataset import read_dataset
from gedraft.metrics import evaluate
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


def test_train_names_a_config_file_that_is_not_utf_8(workspace, tmp_path, capsys, no_training):
    bad = tmp_path / "bad.ini"
    bad.write_bytes(b"[model]\nreadout = \xff\n")
    argv = ["train", "--dataset", str(workspace["dataset"]), "--out", str(tmp_path / "m.json"),
            "--config", str(bad), "--quiet"]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {bad}: byte 18: not UTF-8\n"
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("unwritable", ["--out", "--history"])
def test_train_that_cannot_write_a_file_leaves_neither(workspace, tmp_path, capsys, unwritable):
    # the history is written after the checkpoint, which the failure removes
    paths = {"--out": tmp_path / "m.json", "--history": tmp_path / "h.json"}
    paths[unwritable] = tmp_path / "missing" / "f.json"
    argv = [arg.format(**workspace) for arg in SMALL_ARGV["train"]]
    for flag, path in paths.items():
        argv = with_flag(argv, flag, str(path))
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(paths[unwritable]) in err
    assert os.listdir(tmp_path) == []


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
    # eval passes the --k flags it is given, and evaluate's default otherwise
    seen = []

    def recording_evaluate(params, cfg, dataset, **kwargs):
        seen.append(kwargs)
        raise ValueError("stop here")

    monkeypatch.setattr(cli, "evaluate", recording_evaluate)
    args = ["eval", "--dataset", str(workspace["dataset"]),
            "--checkpoint", str(workspace["checkpoint"])]
    assert main(args) == EXIT_USAGE
    assert main(args + ["--k", "3"]) == EXIT_USAGE
    assert seen == [{}, {"ks": [3]}]
    assert inspect.signature(evaluate).parameters["ks"].default == (10, 20)


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


def test_eval_refuses_a_repeated_k(workspace, capsys):
    # each repeat would add into the same P@k sum
    code = main(
        [
            "eval", "--dataset", str(workspace["dataset"]),
            "--checkpoint", str(workspace["checkpoint"]), "--k", "3", "--k", "3",
        ]
    )
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert "repeated P@k cutoff" in captured.err and captured.out == ""


def test_resat_refuses_a_repeated_name(workspace, tmp_path, capsys, no_probing):
    out = tmp_path / "resat.json"
    ckpt = workspace["checkpoint"]
    code = main(
        [
            "resat", "--dataset", str(workspace["dataset"]),
            "--checkpoint", f"abs={ckpt}", "--checkpoint", f"abs={ckpt}",
            "--out", str(out),
        ]
    )
    assert code == EXIT_USAGE
    assert "'abs' twice" in capsys.readouterr().err
    assert not out.exists()


def test_diverged_training_exits_3_and_writes_nothing(workspace, tmp_path, capsys):
    with np.errstate(all="ignore"):
        code = train_with(
            workspace, tmp_path, "--lr", "1e200", "--hidden", "8", "--layers", "1", "--epochs", "3"
        )
    assert code == EXIT_NUMERIC
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists() and not (tmp_path / "h.json").exists()


def test_training_that_diverges_after_its_first_validation_exits_3(tmp_path, capsys):
    # every validation loss is NaN; the best step was the first, and the
    # history held bare NaN tokens, which are not JSON. NumPy's overflow
    # warnings from the encoder and the fusion came before the error line.
    ds = tmp_path / "ds.json"
    assert main(["gen", "--n-graphs", "12", "--n-min", "3", "--n-max", "4", "--out", str(ds)]) == EXIT_OK
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = train_with(
            {"dataset": ds}, tmp_path, "--hidden", "8", "--layers", "1", "--epochs", "30",
            "--batch-size", "8", "--lr", "1000", config="[train]\nval_window = 1.0\n",
        )
    assert code == EXIT_NUMERIC
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err == "error: training diverged: non-finite validation loss nan at step 1\n"
    assert not (tmp_path / "m.json").exists() and not (tmp_path / "h.json").exists()


@pytest.mark.parametrize("field", ["nged", "sim"])
def test_dataset_number_beyond_double_range_exits_2(workspace, tmp_path, capsys, field):
    doc = json.loads(workspace["dataset"].read_text())
    doc["pairs"][0][field] = 10**400
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(doc))
    for argv in (["eval", "--dataset", str(path), "--checkpoint", str(workspace["checkpoint"])],
                 ["train", "--dataset", str(path), "--out", str(tmp_path / "m.json")]):
        assert main(argv) == EXIT_USAGE
        assert f"pair 0: malformed record ({field} 1000" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("budget", ["-1", str(2**63), "100000000000000000000000"])
def test_budget_outside_0_to_2_63_exits_2(tmp_path, capsys, budget):
    a = write_graph(tmp_path / "a.json", "a", [0, 1, 0], [[0, 1], [1, 2]])
    b = write_graph(tmp_path / "b.json", "b", [1, 1], [[0, 1]])
    out = tmp_path / "ds.json"
    assert main(["ged", "--a", a, "--b", b, "--budget", budget]) == EXIT_USAGE
    assert main(["gen", "--n-graphs", "4", "--budget", budget, "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()
    assert capsys.readouterr().err.count("budget must be an integer in 0..9223372036854775807") == 2


def test_non_finite_gradient_check_exits_3(monkeypatch, capsys):
    from gedraft import autodiff as ad

    huge = ad.Tensor(np.array([1e308]), requires_grad=True)
    cases = {"overflow": (lambda a: ad.reduce_sum(ad.mul(a, a)), [huge])}
    monkeypatch.setattr(cli, "_gradcheck_cases", lambda: cases)
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["gradcheck"]) == EXIT_NUMERIC
    assert "non-finite finite-difference value" in capsys.readouterr().err


def test_checkpoint_with_an_optimizer_section_exits_2(workspace, tmp_path, capsys):
    # a checkpoint is the model only: Adam's state is never read back
    doc = json.loads(workspace["checkpoint"].read_text())
    doc["optimizer"] = {"step": 0, "m": doc["params"], "v": doc["params"]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code = main(["eval", "--dataset", str(workspace["dataset"]), "--checkpoint", str(path)])
    assert code == EXIT_USAGE
    assert "unknown top-level keys: ['optimizer']" in capsys.readouterr().err


@pytest.fixture
def no_drawing(monkeypatch):
    """Fails the test if gen draws a graph."""
    from gedraft import synth

    def draw(*args, **kwargs):
        raise AssertionError("a graph was drawn")

    monkeypatch.setattr(synth, "generate_er", draw)


@pytest.mark.parametrize(
    "flags, message",
    [
        # masked to 64 bits, -1 wrote the dataset of seed 2**64 - 1, and 2**64 that of seed 0
        (["--seed", "-1"], "seed must be an integer in 0..18446744073709551615, got -1"),
        (["--seed", str(2**64)], "seed must be an integer in 0..18446744073709551615"),
        # no train or val pair, which train then refused
        (["--pairs-per-graph", "0"], "need pairs_per_graph >= 1, got 0"),
        # a perturbed graph of 65 nodes is more than the search kernels take
        (["--n-max", "62"], "need n_max <= 61"),
        # the whole alphabet was listed after labeling: 300000 wrote 3.5 MB of
        # symbols, and 2**64 would have filled the memory
        (["--labels", "1025"], "need alphabet_size <= 1024, got 1025"),
        (["--labels", str(2**64)], f"need alphabet_size <= 1024, got {2**64}"),
    ],
    ids=["seed-1", "seed-2**64", "pairs-per-graph-0", "n-max-62", "labels-1025",
         "labels-2**64"],
)
def test_gen_refuses_before_drawing_a_graph(tmp_path, capsys, no_drawing, flags, message):
    out = tmp_path / "ds.json"
    assert main(["gen", "--n-graphs", "12", *flags, "--out", str(out)]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--budget", "0"], "no train pair left: 6 train pairs dropped over budget"),
        (["--n-min", "7", "--seed", "3", "--budget", "0"],
         "no val pair left: 10 val pairs dropped over budget"),
    ],
    ids=["train", "val"],
)
def test_gen_refuses_a_split_that_drops_every_pair(tmp_path, capsys, flags, message):
    # it wrote the dataset and exited 0, and train then refused the file
    out = tmp_path / "ds.json"
    assert main(["gen", "--n-graphs", "6", "--n-max", "8", *flags, "--out", str(out)]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_resat_refuses_a_seed_outside_0_to_2_64(workspace, tmp_path, capsys, no_probing):
    out = tmp_path / "resat.json"
    code = main(
        [
            "resat", "--dataset", str(workspace["dataset"]),
            "--checkpoint", f"abs={workspace['checkpoint']}", "--seed", "-1",
            "--out", str(out),
        ]
    )
    assert code == EXIT_USAGE
    assert "seed must be an integer in 0..18446744073709551615, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def overflowing_checkpoint(workspace, tmp_path_factory):
    """The workspace model with a regressor bias of 1e200: its squared
    errors overflow to inf."""
    doc = json.loads(workspace["checkpoint"].read_text())
    doc["params"]["regressor.b3"]["values"] = [1e200]
    path = tmp_path_factory.mktemp("overflow") / "m.json"
    path.write_text(json.dumps(doc))
    return path


def test_eval_refuses_a_non_finite_report(workspace, overflowing_checkpoint, tmp_path, capsys):
    # the report held "mse_e3": Infinity, which is not JSON
    out = tmp_path / "eval.json"
    code = main(
        [
            "eval", "--dataset", str(workspace["dataset"]),
            "--checkpoint", str(overflowing_checkpoint), "--k", "3", "--out", str(out),
        ]
    )
    assert code == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith('error: non-finite number in the report {"mse_e3": Infinity')


def test_resat_refuses_a_non_finite_report(workspace, overflowing_checkpoint, tmp_path, capsys):
    out = tmp_path / "resat.json"
    code = main(
        [
            "resat", "--dataset", str(workspace["dataset"]),
            "--checkpoint", f"abs={overflowing_checkpoint}", "--per-graph", "4",
            "--probe-epochs", "1", "--out", str(out),
        ]
    )
    assert code == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: non-finite number in the report")
    assert '"gsc_mse_e3": Infinity' in captured.err


# Each subcommand's argv on the workspace, at a size that runs in well under
# a second, and its numeric flags. OUT and HISTORY stand for files that a
# failed command must not leave behind.
OUT, HISTORY = "out.json", "history.json"
SMALL_ARGV = {
    "gen": ["gen", "--n-graphs", "6", "--n-min", "3", "--n-max", "4", "--out", OUT],
    "ged": ["ged", "--a", "a.json", "--b", "b.json"],
    "train": ["train", "--dataset", "{dataset}", "--out", OUT, "--history", HISTORY,
              "--hidden", "4", "--layers", "1", "--epochs", "1", "--batch-size", "32", "--quiet"],
    "eval": ["eval", "--dataset", "{dataset}", "--checkpoint", "{checkpoint}", "--k", "3",
             "--out", OUT],
    "resat": ["resat", "--dataset", "{dataset}", "--checkpoint", "abs={checkpoint}",
              "--per-graph", "2", "--probe-epochs", "1", "--out", OUT],
}
NUMERIC_FLAGS = {
    "gen": ["--n-graphs", "--n-min", "--n-max", "--p", "--labels", "--seed", "--train-frac",
            "--val-frac", "--pairs-per-graph", "--budget"],
    "ged": ["--budget"],
    "train": ["--hidden", "--layers", "--temperature", "--seed", "--epochs", "--batch-size",
              "--lr", "--validations", "--train-seed"],
    "eval": ["--k"],
    "resat": ["--per-graph", "--seed", "--probe-seeds", "--probe-epochs"],
}
EDGE_VALUES = ["-1", "0", "nan", "inf", "x"]
# one past the range of a seed and of a budget, and a label count far past
# the largest alphabet; a huge size would be a huge job rather than an
# error, so no other size flag takes one
BEYOND_RANGE = {
    "--seed": str(2**64), "--train-seed": str(2**64), "--budget": str(2**64),
    "--labels": str(2**64),
}


def with_flag(argv, flag, value):
    """argv with flag set to value: replaced where argv gives it, else added."""
    if flag in argv:
        at = argv.index(flag) + 1
        return argv[:at] + [value] + argv[at + 1:]
    return argv + [flag, value]


def run_with_flag(workspace, command, flag, value):
    """(exit code, stderr, files left) of the small command with one flag set,
    run in a fresh directory."""
    argv = [arg.format(**workspace) for arg in with_flag(SMALL_ARGV[command], flag, value)]
    cwd = os.getcwd()
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        os.chdir(tmp)
        write_graph(Path("a.json"), "a", [0, 1, 0], [[0, 1], [1, 2]])
        write_graph(Path("b.json"), "b", [1, 1], [[0, 1]])
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a value with exit 2
            code = exc.code
        finally:
            os.chdir(cwd)
        left = sorted(set(os.listdir(tmp)) & {OUT, HISTORY})
    return code, err.getvalue(), left


@st.composite
def flag_settings(draw):
    command = draw(st.sampled_from(sorted(NUMERIC_FLAGS)))
    flag = draw(st.sampled_from(NUMERIC_FLAGS[command]))
    beyond = [BEYOND_RANGE[flag]] if flag in BEYOND_RANGE else []
    return command, flag, draw(st.sampled_from(EDGE_VALUES + beyond))


@settings(max_examples=60, deadline=None)
@given(setting=flag_settings())
def test_an_edge_value_of_any_numeric_flag_keeps_the_exit_code_contract(workspace, setting):
    code, err, left = run_with_flag(workspace, *setting)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_NUMERIC), (setting, code, err)
    assert "Traceback" not in err, (setting, err)
    assert code == EXIT_OK or not left, (setting, code, left)
