"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Every workload makes a tiny pass through the one command, untraced and
traced; a wrong label or a worse quality output planted in the program must
be counted as a failure; and without gedraft's sources the command must fail
without a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# per-layer metrics that must be nonzero on each workload's traced pass
ACTIVE = {
    "gen-mid": ["ged.calls", "ged.expansions", "ged.kernel_s", "synth.self_s",
                "dataset.write_s", "dataset.bytes"],
    "gen-small": ["ged.calls", "ged.wrapper_s", "ged.pair_ms_p50", "dataset.write_s"],
    "train-eval": ["dataset.read_s", "encoder.forward_s", "fusion.forward_s",
                   "autodiff.backward_s", "optim.adam_step_s", "training.steps",
                   "training.validation_s", "metrics.evaluate_s", "model.checkpoint_save_s"],
    "resat": ["resat.build_s", "resat.embed_s", "resat.probe_s", "resat.probe_epochs_per_s",
              "autodiff.probe_backward_s", "optim.probe_adam_step_s"],
}


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass(workload, trace):
    res = bench("--workload", workload, "--seed", "5", "--seconds", "0.2",
                "--trace", str(trace), "--scale", "tiny")
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert all(values[name] > 0 for name in ACTIVE[workload]), values
    else:
        assert all(v > 0 for v in values.values()), values


def test_planted_wrong_label_is_a_failure(monkeypatch, capsys):
    sys.path.insert(0, str(HERE))
    import run

    run.import_gedraft(run.build())
    from gedraft import ged, synth
    from gedraft.dataset import PairRecord

    label_pair = synth._label_pair
    planted = []

    def wrong_label(g1, g2, split, budget):
        rec = label_pair(g1, g2, split, budget)
        if not planted or planted[0] == (g1.id, g2.id):
            planted[:1] = [(g1.id, g2.id)]
            d = ged.nged(rec.ged + 1, g1.n, g2.n)
            rec = PairRecord(rec.i, rec.j, rec.ged + 1, d, ged.similarity(d), rec.split)
        return rec

    monkeypatch.setattr(synth, "_label_pair", wrong_label)
    assert run.main(["--workload", "gen-small", "--seed", "5", "--seconds", "0.2",
                     "--trace", "0", "--scale", "tiny"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert planted
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["ok_frac"]["value"] < 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    res = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout


def test_planted_worse_quality_is_a_failure(monkeypatch, capsys):
    sys.path.insert(0, str(HERE))
    import run

    run.import_gedraft(run.build())
    from gedraft import resat

    probe = resat.resat_probe
    monkeypatch.setattr(resat, "resat_probe", lambda *a, **kw: probe(*a, **kw) * 1.1)
    assert run.main(["--workload", "resat", "--seed", "5", "--seconds", "0.2",
                     "--trace", "0", "--scale", "tiny"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["metrics"]["quality_ratio"]["value"] < 0.92
