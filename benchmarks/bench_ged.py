"""Benchmark the compiled GED kernel against the pure-Python fallback.

Runs the same workload of exact GED computations through both kernels and
reports wall time, expansions per second, and the speedup. Also verifies
that both kernels return bit-identical results on every instance.

Usage: python benchmarks/bench_ged.py [--pairs N] [--n-min A] [--n-max B]
"""

from __future__ import annotations

import argparse
import time

from gedraft import graphs as G
from gedraft.ged import _astar_py, core


def make_workload(pairs: int, n_min: int, n_max: int, seed: int):
    work = []
    for t in range(pairs):
        span = n_max - n_min + 1
        g1 = G.generate_er(n_min + t % span, 0.4, 3, seed + 2 * t, f"a{t}")
        g2 = G.generate_er(n_min + (t * 7) % span, 0.45, 3, seed + 2 * t + 1, f"b{t}")
        work.append(
            (
                g1.n,
                g1.labels,
                g1.adjacency_masks(),
                g2.n,
                g2.labels,
                g2.adjacency_masks(),
            )
        )
    return work


def run(kernel, work, budget):
    t0 = time.perf_counter()
    results = [
        kernel.solve(n1, l1, a1, n2, l2, a2, 3, budget)
        for n1, l1, a1, n2, l2, a2 in work
    ]
    return time.perf_counter() - t0, results


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", type=int, default=300)
    ap.add_argument("--n-min", type=int, default=5)
    ap.add_argument("--n-max", type=int, default=9)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--budget", type=int, default=core.DEFAULT_BUDGET)
    args = ap.parse_args()

    if core.BACKEND != "c":
        print(
            "note: compiled kernel not built (backend is "
            f"{core.BACKEND!r}); comparing the fallback against itself"
        )
    compiled = core._kernel
    work = make_workload(args.pairs, args.n_min, args.n_max, args.seed)

    t_py, res_py = run(_astar_py, work, args.budget)
    t_c, res_c = run(compiled, work, args.budget)
    if res_py != res_c:
        raise SystemExit("kernel disagreement: results differ")

    expansions = sum(r[2] for r in res_py)
    print(f"workload: {args.pairs} pairs, n in [{args.n_min}, {args.n_max}]")
    print(f"total expansions: {expansions}")
    print(f"pure python : {t_py:8.3f} s  ({expansions / t_py:12.0f} expansions/s)")
    print(f"compiled    : {t_c:8.3f} s  ({expansions / t_c:12.0f} expansions/s)")
    print(f"speedup     : {t_py / t_c:8.1f} x")
    print("results identical on all instances")


if __name__ == "__main__":
    main()
