#!/usr/bin/env python3
"""gedraft benchmark: one workload per run, end to end or traced per layer.

    python3 perfbench/run.py --workload gen-mid --seed 1 --seconds 15 --trace 0

Builds gedraft from the checkout's sources into ``.bench_build/``, sets the
workload up in fresh interpreters, repeats its timed part for up to ``--seconds``,
checks the outputs, and prints one JSON object as the last line of stdout:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. See README.md in this directory for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread, set before anything loads NumPy, so a run measures the
# program and not the scheduler. Set-up interpreters inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = {"gen-mid": 9, "gen-small": 9, "train-eval": 3, "resat": 3}
# how strongly each workload's times follow the speed probe: the slope of log
# time on log mean probe, fitted over 20 runs at the seed commit (README.md)
SPEED_EXPONENT = {"gen-mid": 1.0, "gen-small": 1.0, "train-eval": 0.6, "resat": 0.6}


def source_digest() -> str:
    h = hashlib.sha256()
    files = [ROOT / "setup.py", ROOT / "pyproject.toml"]
    files += sorted(
        p for p in (ROOT / "src").rglob("*")
        if p.is_file() and "__pycache__" not in p.parts and not p.parent.name.endswith(".egg-info")
    )
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def build() -> Path:
    """Build gedraft with its own setup.py; rebuilt when the sources change."""
    if not (ROOT / "setup.py").is_file() or not (ROOT / "src" / "gedraft").is_dir():
        raise SystemExit(f"no gedraft sources next to {HERE.name}/: nothing to benchmark")
    base = OUT / "build"
    stamp = OUT / "build.stamp"
    digest = source_digest()
    if not stamp.is_file() or stamp.read_text() != digest:
        shutil.rmtree(base, ignore_errors=True)
        (base / "egg").mkdir(parents=True)
        subprocess.run(
            [sys.executable, "setup.py", "-q", "egg_info", "--egg-base", str(base / "egg"),
             "build", "--build-base", str(base)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=850,
        )
        stamp.write_text(digest)
    libs = [p.parent.parent for p in base.glob("lib*/gedraft/__init__.py")]
    if len(libs) != 1:
        raise SystemExit(f"build left {len(libs)} gedraft packages under {base}")
    return libs[0]


def import_gedraft(lib: Path):
    sys.path.insert(0, str(lib))
    import gedraft

    if Path(gedraft.__file__).resolve().parent != lib / "gedraft":
        raise SystemExit(f"imported gedraft from {gedraft.__file__}, not from the build")


def blas_info():
    """(OpenBLAS version, threads OpenBLAS reports), None where unknown."""
    import ctypes

    import numpy as np

    try:
        version = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        version = None
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return version, threads


def metadata(args):
    import numpy as np

    from gedraft.ged import core

    sha = None
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            sha = res.stdout.strip() or None
        except OSError:
            pass
    blas_version, blas_threads = blas_info()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "backend": core.BACKEND, "git_sha": sha, "source_sha256": source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "openblas": blas_version, "blas_threads": blas_threads,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_setups(args, lib, workdir, speed) -> list[float]:
    """Time the workload's set-up in fresh interpreters, with speed probes
    between them; the last one's files stay in ``workdir`` for the timed part."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale,
           "--setup-only", str(workdir), "--lib", str(lib)]
    times = []
    for _ in range(SETUP_REPEATS[args.workload]):
        speed.sample()
        t0 = time.perf_counter()
        # no timeout: with one, subprocess polls the child every 50 ms and
        # the measured time snaps to that grid
        subprocess.run(cmd, check=True)
        times.append(time.perf_counter() - t0)
    speed.sample()
    return times


def percentile(values, q):
    """Nearest-rank percentile, 0 for no values."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(0, math.ceil(q / 100 * len(s)) - 1)]


def layer_metrics(tracers, reps) -> dict:
    """Per-layer values of the traced repetitions: times and counts per
    repetition, percentiles over the pooled samples."""
    n = len(tracers)

    def per_rep(f):
        return sum(f(tr) for tr in tracers) / n

    def total(name):
        return per_rep(lambda tr: tr.total(name))

    def total_under(name, ancestor):
        return per_rep(lambda tr: sum(e - s for s, e in tr.under(name, ancestor)))

    kernel_s = total("ged.solve")
    expansions = per_rep(lambda tr: tr.counts["ged.expansions"])
    pair_ms = [d * 1e3 for tr in tracers for d in tr.durations("ged.ged_exact")]
    step_ms = []
    for tr in tracers:
        starts = [s for s, _ in tr.under("optim.zero_grad", "training.train")]
        ends = [e for _, e in tr.under("optim.adam_step", "training.train")]
        step_ms += [(end - start) * 1e3 for start, end in zip(starts, ends)]
    train_s, probe_s = total("training.train"), total("resat.probe")

    def extra(key):
        return sum(r.extra.get(key, 0.0) for r in reps) / n

    return {
        "ged.calls": (len(pair_ms) / n, "count"),
        "ged.expansions": (expansions, "count"),
        "ged.budget_drops": (per_rep(lambda tr: tr.counts["ged.budget_drops"]), "count"),
        "ged.kernel_s": (kernel_s, "s"),
        "ged.us_per_expansion": (kernel_s / expansions * 1e6 if expansions else 0.0, "us"),
        "ged.pair_ms_p50": (percentile(pair_ms, 50), "ms"),
        "ged.pair_ms_p99": (percentile(pair_ms, 99), "ms"),
        "ged.wrapper_s": (per_rep(lambda tr: tr.self_time("ged.ged_exact")), "s"),
        "synth.self_s": (per_rep(lambda tr: tr.self_time("synth.build_dataset")), "s"),
        "synth.label_pairs_per_s": (
            sum(r.items for r in reps) / sum(r.item_s for r in reps) if pair_ms else 0.0, "1/s"),
        "dataset.write_s": (total("dataset.write"), "s"),
        "dataset.bytes": (per_rep(lambda tr: tr.counts["dataset.bytes"]), "bytes"),
        "dataset.read_s": (total("dataset.read"), "s"),
        "model.checkpoint_save_s": (total("model.save_checkpoint"), "s"),
        "model.checkpoint_load_s": (total("model.load_checkpoint"), "s"),
        "encoder.forward_s": (total("encoder.encode_graphs"), "s"),
        "fusion.forward_s": (total("fusion.fuse"), "s"),
        "model.regress_s": (total("model.regress"), "s"),
        "autodiff.backward_s": (total_under("autodiff.backward", "training.train"), "s"),
        "optim.adam_step_s": (total_under("optim.adam_step", "training.train"), "s"),
        "autodiff.probe_backward_s": (total_under("autodiff.backward", "resat.probe"), "s"),
        "optim.probe_adam_step_s": (total_under("optim.adam_step", "resat.probe"), "s"),
        "training.steps": (len(step_ms) / n, "count"),
        "training.steps_per_s": (len(step_ms) / n / train_s if train_s else 0.0, "1/s"),
        "training.step_ms_p50": (percentile(step_ms, 50), "ms"),
        "training.step_ms_p99": (percentile(step_ms, 99), "ms"),
        "training.validation_s": (total("training.validation"), "s"),
        "training.test_mse_e3": (extra("test_mse_e3"), "1e-3"),
        "metrics.predict_s": (total("metrics.predict"), "s"),
        "metrics.evaluate_s": (total("metrics.evaluate"), "s"),
        "metrics.eval_pairs_per_s": (extra("eval_pairs_per_s"), "1/s"),
        "resat.build_s": (total("resat.build"), "s"),
        "resat.embed_s": (total("resat.embed"), "s"),
        "resat.probe_s": (probe_s, "s"),
        "resat.probe_epochs_per_s": (extra("probe_epochs") / probe_s if probe_s else 0.0, "1/s"),
        "resat.mse": (extra("resat_mse"), "mse"),
        "resat.mse_pre_attention": (extra("resat_mse_pre"), "mse"),
    }


def measure(run, seconds, trace):
    """Repeat the timed part while the next repetition, if it takes as long as
    the last, ends within ``seconds``; at least once. A traced run alternates
    untraced and traced repetitions."""
    from tracer import Tracer, instrument

    plain, traced, tracers = [], [], []
    clock = time.perf_counter
    deadline = clock() + seconds
    while True:
        t0 = clock()
        plain.append(run.rep())
        if trace:
            tr = Tracer()
            with instrument(tr):
                traced.append(run.rep())
            tracers.append(tr)
        now = clock()
        if now + (now - t0) > deadline:
            return plain, traced, tracers


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: a seconds-long pass for the benchmark's tests")
    ap.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    ap.add_argument("--lib", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    lib = Path(args.lib) if args.lib else build()
    import_gedraft(lib)
    sys.path.insert(0, str(HERE))
    import workloads
    from speed import Speed

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    cfg = workloads.SCALES[args.scale]
    if args.setup_only:
        workloads.setup(args.workload, cfg, args.seed, Path(args.setup_only))
        return 0

    pins = json.loads((HERE / "pins.json").read_text())[args.scale]
    if pins["config"] != json.loads(json.dumps(cfg)):
        raise SystemExit(f"pins.json is stale for scale {args.scale!r}: run make_pins.py")

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup_speed = Speed()
        setup_times = run_setups(args, lib, workdir, setup_speed)
        run = workloads.Run(args.workload, cfg, args.seed, workdir, pins)
        plain, traced, tracers = measure(run, args.seconds, args.trace)
        checks = run.checks(plain + traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reps = plain + traced
    failed_checks = [name for name, ok in checks if not ok]
    attempted = sum(r.attempted for r in reps) + len(checks)
    failed = sum(r.failed for r in reps) + len(failed_checks)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    plain_wall = statistics.median(r.wall for r in plain)
    plain_rate = sum(r.items for r in plain) / sum(r.item_s for r in plain)
    exponent = SPEED_EXPONENT[args.workload]
    speed_scale = run.speed.scale(exponent)
    if args.trace:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in layer_metrics(tracers, traced).items()
        }
        overhead = statistics.median(r.wall for r in traced) / plain_wall - 1
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times) * setup_speed.scale(exponent),
                        "unit": "s"},
            "wall_s": {"value": plain_wall * speed_scale, "unit": "s"},
            "items_per_s": {"value": plain_rate / speed_scale, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ok_frac": {"value": 1 - failed / attempted, "unit": "frac"},
            "quality_ratio": {"value": run.quality_ratio(plain[0]), "unit": "ratio"},
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    meta = metadata(args)
    details = {
        "meta": meta, "setup_s": setup_times, "failed_checks": failed_checks,
        "unscaled": {"setup_s": statistics.median(setup_times), "wall_s": plain_wall,
                     "items_per_s": plain_rate},
        "probe_s": {"setup": setup_speed.probes, "timed": run.speed.probes},
        "checks": len(checks), "failed_frac": failed / attempted,
        "reps": [{"wall_s": r.wall, "items": r.items, "item_s": r.item_s,
                  "traced": i >= len(plain), **r.extra} for i, r in enumerate(reps)],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{stem}.json").write_text(json.dumps({**details, **result}, indent=1))
    for i, tr in enumerate(tracers):
        tr.write(OUT / "results" / f"{stem}-spans{i}.jsonl")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
