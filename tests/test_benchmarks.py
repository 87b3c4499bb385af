"""Smoke runs of the scripts under ``benchmarks/``, which the README tells
users to run."""

import importlib.util
import sys
from pathlib import Path

from gedraft.ged import core

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_bench_ged_finds_both_kernels_agree(c_kernel, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("bench_ged", BENCHMARKS / "bench_ged.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setattr(core, "_kernel", c_kernel)
    monkeypatch.setattr(core, "BACKEND", "c")
    monkeypatch.setattr(sys, "argv", ["bench_ged.py", "--pairs", "6", "--n-min", "4", "--n-max", "6"])
    bench.main()
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "workload: 6 pairs, n in [4, 6]"
    assert out[-1] == "results identical on all instances"
