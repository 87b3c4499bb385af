"""The whole command-line pipeline, gen -> train -> eval -> resat, pinned by
the sha256 of every file it writes and of its stdout.

A change that means to alter any of these bytes says so, with the old and
new digests. The pins hold for NumPy's OpenBLAS on one thread (conftest.py
sets it), as the probe embedding digests in test_resat.py do: a BLAS with
another summation order trains other weights.
"""

import hashlib

import pytest

from gedraft import cli, optim
from gedraft.ged import _astar_py, core

# One run of the pipeline: the argv of each command, with file names
# relative to the working directory, so that stdout names no temporary path.
PIPELINE = [
    ["gen", "--n-graphs", "40", "--seed", "3", "--out", "ds.json"],
    ["train", "--dataset", "ds.json", "--out", "diffatt.json", "--history", "diffatt-h.json",
     "--fusion", "diffatt", "--readout", "gca", "--hidden", "8", "--epochs", "3"],
    ["train", "--dataset", "ds.json", "--out", "abs.json", "--history", "abs-h.json",
     "--fusion", "abs", "--readout", "mean", "--hidden", "8", "--epochs", "3"],
    ["eval", "--dataset", "ds.json", "--checkpoint", "diffatt.json", "--k", "3", "--k", "5",
     "--out", "eval.json"],
    ["resat", "--dataset", "ds.json", "--checkpoint", "diffatt=diffatt.json",
     "--checkpoint", "abs=abs.json", "--probe-seeds", "2", "--probe-epochs", "5",
     "--out", "resat.json"],
]

PINS = {
    "ds.json": "566a9d1550156500090573c4962791404600c31a2b786a56faaba1844fbc9b7c",
    "diffatt.json": "de9b2b5ee2e22722322493794ec3c18ff5b5278e00cf9bb6501d352b7cf9fdb0",
    "abs.json": "5985abed8f854afab8b95758b25ff1f1289e38ef4aebf1fecd87a271be55f11c",
    "eval.json": "ac5a0ac53b649838990734d1e358380155e3715bff886f7e931521eb1746ec26",
    "resat.json": "ed52801c06fb3df93d5fd774fa767df2d4a3424f833b5c0f53b500d1ad50998d",
    "stdout": "860bbc6462e7ca496f2a03cb30167975cd5e2199bbe587e77686a62e2af6ab49",
}
# A training history names the GED and Adam backends that ran, so its pins
# are per (ged, adam) backend pair; every other byte is the same on both.
HISTORY_PINS = {
    ("c", "c"): {
        "diffatt-h.json": "15d9b56db3199fdee2274b9fbf353b12630465b59fe7cbad77ae037e7d2e5a2f",
        "abs-h.json": "b518b32ac123edc4b84a94f68a113521240e0a197c4bbf72ee0581f99a582c98",
    },
    ("python", "numpy"): {
        "diffatt-h.json": "2da2e07aca45544a04d493b78fcba1574e9c0fcb1de214f2037d3d840a857a9b",
        "abs-h.json": "fb3dd344471a6029455af6e44ae78c5e34429c0e32e6848291fc80aaa0fcaced",
    },
}


def run_pipeline(workdir, monkeypatch, capsys):
    """sha256 of each file the pipeline writes, and of its stdout."""
    monkeypatch.chdir(workdir)
    capsys.readouterr()
    for argv in PIPELINE:
        assert cli.main(argv) == cli.EXIT_OK, argv
    digests = {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    for path in sorted(workdir.iterdir()):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def check_pins(digests, backends):
    assert digests == {**PINS, **HISTORY_PINS[backends]}


def test_pipeline_bytes_are_pinned_on_the_compiled_kernels(
    tmp_path, monkeypatch, capsys, c_kernel, c_adam
):
    assert (core.BACKEND, optim.BACKEND) == ("c", "c")
    check_pins(run_pipeline(tmp_path, monkeypatch, capsys), ("c", "c"))


def test_pipeline_bytes_are_pinned_on_the_pure_kernels(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(core, "_kernel", _astar_py)
    monkeypatch.setattr(core, "_recount", core._edit_count)
    monkeypatch.setattr(optim, "_step", optim.numpy_step)
    monkeypatch.setattr(cli, "BACKEND", "python")
    monkeypatch.setattr(cli, "ADAM_BACKEND", "numpy")
    check_pins(run_pipeline(tmp_path, monkeypatch, capsys), ("python", "numpy"))
