"""Synthetic dataset generation with exact edit-distance labels.

Graphs are random G(n, p) draws; every second graph is a small perturbation
of an earlier one so the similarity distribution covers both near-duplicate
and unrelated pairs. Graphs are split train/val/test; train and val pairs
are sampled per graph, test pairs follow the ranking protocol (every test
graph against the whole train+val corpus). Pairs whose exact search blows
the expansion budget are dropped and counted.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass

from .dataset import Dataset, PairRecord
from .ged import DEFAULT_BUDGET, GedBudgetExceeded, ged_exact, nged, similarity
from .graphs import Graph, generate_er, perturb
from .rng import SplitMix64

PERTURB_MAX = 3  # a perturbed graph is 1..PERTURB_MAX edits from its base


@dataclass
class GenReport:
    num_graphs: int
    num_pairs: int
    dropped_budget: int
    expansions: int  # search expansions of the labeled and the dropped pairs


# The running count of search expansions of the pairs labeled by the
# build_dataset of the current context, as a one-item list. A labeling run
# nested in another (from a second thread, or from inside a replaced
# ged_exact) sets a list of its own and restores the outer one on exit.
# perfbench's tests replace _label_pair with a (g1, g2, split, budget) ->
# PairRecord function, so the count cannot travel in its arguments or its
# result.
_expansion_tally: ContextVar[list] = ContextVar("_expansion_tally")


def _label_pair(g1: Graph, g2: Graph, split: str, budget: int):
    res = ged_exact(g1, g2, budget)
    _expansion_tally.get()[0] += res.expansions
    d = nged(res.cost, g1.n, g2.n)
    return PairRecord(g1.id, g2.id, res.cost, d, similarity(d), split)


def build_dataset(
    n_graphs: int,
    n_min: int,
    n_max: int,
    p: float,
    alphabet_size: int,
    seed: int,
    train_frac: float = 0.6,
    val_frac: float = 0.2,
    pairs_per_graph: int = 10,
    budget: int = DEFAULT_BUDGET,
):
    """Returns (Dataset, GenReport)."""
    if n_graphs < 3:
        raise ValueError("need at least 3 graphs for the three splits")
    if not 1 <= n_min <= n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got {n_min}..{n_max}")
    if not 0 <= p <= 1:
        raise ValueError(f"need 0 <= p <= 1, got {p}")
    if not (0 < train_frac and 0 < val_frac and train_frac + val_frac < 1):
        raise ValueError("train/val fractions must be positive and sum below 1")
    rng = SplitMix64(seed)
    graphs: list[Graph] = []
    for i in range(n_graphs):
        gid = f"g{i:05d}"
        if i % 2 == 1 and graphs:
            base = graphs[rng.randrange(len(graphs))]
            k = 1 + rng.randrange(PERTURB_MAX)
            g = perturb(base, k, rng.next_u64(), alphabet_size)
            graphs.append(Graph(gid, g.labels, g.edges))
        else:
            n = n_min + rng.randrange(n_max - n_min + 1)
            g = generate_er(n, p, alphabet_size, rng.next_u64(), gid)
            graphs.append(g)

    order = list(range(n_graphs))
    rng.shuffle(order)
    n_train = max(1, int(round(n_graphs * train_frac)))
    n_val = max(1, int(round(n_graphs * val_frac)))
    train_ids = [graphs[i].id for i in order[:n_train]]
    val_ids = [graphs[i].id for i in order[n_train : n_train + n_val]]
    test_ids = [graphs[i].id for i in order[n_train + n_val :]]
    if not test_ids:
        raise ValueError("split fractions leave no test graphs")
    by_id = {g.id: g for g in graphs}

    wanted: list[tuple[str, str, str]] = []
    seen = set()
    for gid in train_ids:
        for _ in range(pairs_per_graph):
            other = train_ids[rng.randrange(len(train_ids))]
            if other == gid:
                continue
            key = (min(gid, other), max(gid, other))
            if key in seen:
                continue
            seen.add(key)
            wanted.append((gid, other, "train"))
    for gid in val_ids:
        for _ in range(pairs_per_graph):
            other = train_ids[rng.randrange(len(train_ids))]
            wanted.append((gid, other, "val"))
    corpus = sorted(train_ids + val_ids)
    for gid in test_ids:
        for other in corpus:
            wanted.append((gid, other, "test"))

    pairs = []
    labeled = [0]
    dropped = dropped_expansions = 0
    token = _expansion_tally.set(labeled)
    try:
        for gi, gj, split in wanted:
            try:
                pairs.append(_label_pair(by_id[gi], by_id[gj], split, budget))
            except GedBudgetExceeded as exc:
                dropped += 1
                dropped_expansions += exc.expansions
    finally:
        _expansion_tally.reset(token)
    alphabet = tuple(str(i) for i in range(alphabet_size))
    ds = Dataset(alphabet, graphs, pairs)
    return ds, GenReport(n_graphs, len(pairs), dropped, labeled[0] + dropped_expansions)
