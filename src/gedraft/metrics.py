"""Evaluation metrics and the query/corpus ranking protocol.

Spearman's rho is Pearson correlation on average ranks (ties averaged);
Kendall's tau uses the tie-corrected tau-b form. Each test-split graph is a
query ranked against every corpus (train+val) graph; rho, tau, and P@k are
averaged over per-query rankings, MSE is taken over all scored pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import ModelConfig, predict


class Correlation(NamedTuple):
    value: float
    defined: bool  # False when an input is constant (correlation undefined)


def average_ranks(xs) -> np.ndarray:
    """1-based ranks with tied values receiving their average rank."""
    xs = np.asarray(xs, dtype=np.float64)
    order = np.argsort(xs, kind="stable")
    ranks = np.empty(len(xs))
    i = 0
    while i < len(xs):
        j = i
        while j + 1 < len(xs) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def spearman_checked(xs, ys) -> Correlation:
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        raise ValueError(f"length mismatch: {xs.shape} vs {ys.shape}")
    if len(xs) < 2:
        raise ValueError("need at least 2 observations")
    rx, ry = average_ranks(xs), average_ranks(ys)
    dx, dy = rx - rx.mean(), ry - ry.mean()
    denom = np.sqrt((dx * dx).sum() * (dy * dy).sum())
    if denom == 0:
        return Correlation(0.0, False)
    return Correlation(float((dx * dy).sum() / denom), True)


def kendall_checked(xs, ys) -> Correlation:
    """Tau-b: (C - D) / sqrt((n0 - tx)(n0 - ty)) with tie corrections."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        raise ValueError(f"length mismatch: {xs.shape} vs {ys.shape}")
    n = len(xs)
    if n < 2:
        raise ValueError("need at least 2 observations")
    sx = np.sign(xs[:, None] - xs[None, :])
    sy = np.sign(ys[:, None] - ys[None, :])
    c_minus_d = float((sx * sy).sum()) / 2.0
    n0 = n * (n - 1) / 2
    tx = n0 - float((sx != 0).sum()) / 2.0
    ty = n0 - float((sy != 0).sum()) / 2.0
    denom = np.sqrt((n0 - tx) * (n0 - ty))
    if denom == 0:
        return Correlation(0.0, False)
    return Correlation(c_minus_d / denom, True)


def precision_at_k(pred, true, k: int, ids) -> float:
    """|predicted top-k  intersect  true top-k| / k.

    True-side ties at the rank-k boundary expand the true set (denominator
    stays k); the predicted top-k breaks ties by ascending ``ids[i]``.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    pred = np.asarray(pred, dtype=float)
    true = np.asarray(true, dtype=float)
    n = len(pred)
    if n < k:
        raise ValueError(f"corpus of size {n} smaller than k={k}")
    order_pred = sorted(range(n), key=lambda i: (-pred[i], ids[i]))
    top_pred = set(order_pred[:k])
    threshold = np.sort(true)[::-1][k - 1]
    top_true = {i for i in range(n) if true[i] >= threshold}
    return len(top_pred & top_true) / k


@dataclass(frozen=True)
class MetricsReport:
    mse_e3: float
    rho: float
    tau: float
    p_at: dict
    num_queries: int
    num_pairs: int

    def to_json(self):
        return {
            "mse_e3": self.mse_e3,
            "rho": self.rho,
            "tau": self.tau,
            "p_at": {str(k): v for k, v in self.p_at.items()},
            "num_queries": self.num_queries,
            "num_pairs": self.num_pairs,
        }


def predict_pairs(pair_list, dataset, params, cfg: ModelConfig) -> np.ndarray:
    """``predict`` on the graphs of PairRecords, in order."""
    return predict([(dataset.graph(p.i), dataset.graph(p.j)) for p in pair_list], params, cfg)


def evaluate(params, cfg: ModelConfig, dataset, ks=(10, 20)) -> MetricsReport:
    """Score every test pair and aggregate ranking metrics per query.

    Test pairs are (query id, corpus id) records; the per-query candidate
    list is ordered by ascending corpus graph id. ValueError for a repeated
    k, or a k below 1 (from ``precision_at_k``).
    """
    if len(set(ks)) != len(ks):
        raise ValueError(f"repeated P@k cutoff in {list(ks)}")
    test_pairs = dataset.split_pairs("test")
    if not test_pairs:
        raise ValueError("dataset has no test pairs")
    preds = predict_pairs(test_pairs, dataset, params, cfg)
    labels = np.asarray([p.sim for p in test_pairs])
    mse = float(((preds - labels) ** 2).mean())

    by_query: dict[str, list[int]] = {}
    for idx, p in enumerate(test_pairs):
        by_query.setdefault(p.i, []).append(idx)
    rhos, taus = [], []
    p_sums = {k: 0.0 for k in ks}
    for qid in sorted(by_query):
        idxs = sorted(by_query[qid], key=lambda t: test_pairs[t].j)
        qp = preds[idxs]
        qt = labels[idxs]
        rhos.append(spearman_checked(qp, qt).value)
        taus.append(kendall_checked(qp, qt).value)
        corpus_ids = [test_pairs[t].j for t in idxs]
        for k in ks:
            p_sums[k] += precision_at_k(qp, qt, k, ids=corpus_ids)
    nq = len(by_query)
    return MetricsReport(
        mse_e3=mse * 1e3,
        rho=float(np.mean(rhos)),
        tau=float(np.mean(taus)),
        p_at={k: p_sums[k] / nq for k in ks},
        num_queries=nq,
        num_pairs=len(test_pairs),
    )
