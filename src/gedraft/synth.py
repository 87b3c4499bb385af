"""Synthetic dataset generation with exact edit-distance labels.

Graphs are random G(n, p) draws; every second graph is a small perturbation
of an earlier one so the similarity distribution covers both near-duplicate
and unrelated pairs. Graphs are split train/val/test; train and val pairs
are sampled per graph, test pairs follow the ranking protocol (every test
graph against the whole train+val corpus). Pairs whose exact search blows
the expansion budget are dropped and counted; a split that drops all of its
pairs, or has none, is refused.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass

from .dataset import Dataset, PairRecord
from .ged import DEFAULT_BUDGET, GedBudgetExceeded, ged_exact, nged, similarity
from .ged.core import MAX_NODES
from .graphs import Graph, generate_er, perturb
from .rng import SplitMix64

PERTURB_MAX = 3  # a perturbed graph is 1..PERTURB_MAX edits from its base
MAX_ALPHABET = 1024  # the most label symbols build_dataset takes; see there


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


# (nged, sim) by (ged, n1 + n2), which fix both: nged() divides ged by the
# mean node count, and refuses only an empty graph, which build_dataset
# never makes (n_min >= 1, and perturb deletes a node only from two). The
# 63,343 pairs of perfbench's gen-small pass have 132 distinct keys, so
# equal labels share one pair of floats. The table is filled by nged() and
# similarity() themselves, so each label is their float bit for bit, and it
# keeps at most _LABELS_MAX keys.
_labels: dict[tuple[int, int], tuple[float, float]] = {}
_LABELS_MAX = 4096


def _label_pair(g1: Graph, g2: Graph, split: str, budget: int):
    """The labeled record of one pair; GedBudgetExceeded when its search
    runs out of budget. Adds the search's expansions to the tally of the
    build_dataset that is running."""
    cost, _, expansions = ged_exact(g1, g2, budget)
    _expansion_tally.get()[0] += expansions
    n1, n2 = len(g1.labels), len(g2.labels)
    label = _labels.get((cost, n1 + n2))
    if label is None:
        d = nged(cost, n1, n2)
        label = (d, similarity(d))
        if len(_labels) < _LABELS_MAX:
            _labels[cost, n1 + n2] = label
    # past PairRecord's generated __new__, which costs twice as much
    return tuple.__new__(PairRecord, (g1.id, g2.id, cost, *label, split))


def build_dataset(
    n_graphs: int,
    n_min: int = 5,
    n_max: int = 8,
    p: float = 0.4,
    alphabet_size: int = 3,
    seed: int = 0,
    train_frac: float = 0.6,
    val_frac: float = 0.2,
    pairs_per_graph: int = 10,
    budget: int = DEFAULT_BUDGET,
):
    """Returns (Dataset, GenReport).

    These are ``gedraft gen``'s options and defaults. ValueError for a bad
    one; ``generate_er`` checks ``p`` and ``alphabet_size >= 1`` on graph 0,
    ``SplitMix64`` the seed and ``ged_exact`` the budget. ValueError, too,
    when the train, val or test split is left without a pair.

    ``alphabet_size`` is at most ``MAX_ALPHABET``, checked before any graph
    is drawn. The dataset lists every symbol of the alphabet, and the model
    reads each label as a one-hot vector of the alphabet's width, so both
    grow with it whatever the graphs use. 1,024 symbols are far more than a
    labeled GED benchmark has (AIDS has 29), and take 9 KB of a file.
    """
    if n_graphs < 3:
        raise ValueError("need at least 3 graphs for the three splits")
    if not 1 <= n_min <= n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got {n_min}..{n_max}")
    if n_max + PERTURB_MAX > MAX_NODES:
        raise ValueError(
            f"need n_max <= {MAX_NODES - PERTURB_MAX}: a perturbation adds up to "
            f"{PERTURB_MAX} nodes, and exact labeling takes graphs of at most {MAX_NODES}"
        )
    if not (0 < train_frac and 0 < val_frac and train_frac + val_frac < 1):
        raise ValueError("train/val fractions must be positive and sum below 1")
    if pairs_per_graph < 1:
        raise ValueError(f"need pairs_per_graph >= 1, got {pairs_per_graph}")
    if alphabet_size > MAX_ALPHABET:
        raise ValueError(f"need alphabet_size <= {MAX_ALPHABET}, got {alphabet_size}")
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
    train = [graphs[i] for i in order[:n_train]]
    val = [graphs[i] for i in order[n_train : n_train + n_val]]
    test = [graphs[i] for i in order[n_train + n_val :]]
    if not test:
        raise ValueError("split fractions leave no test graphs")

    wanted: list[tuple[Graph, Graph, str]] = []
    seen = set()
    for g in train:
        for _ in range(pairs_per_graph):
            other = train[rng.randrange(len(train))]
            if other is g:
                continue
            key = (min(g.id, other.id), max(g.id, other.id))
            if key in seen:
                continue
            seen.add(key)
            wanted.append((g, other, "train"))
    for g in val:
        for _ in range(pairs_per_graph):
            wanted.append((g, train[rng.randrange(len(train))], "val"))
    corpus = sorted(train + val, key=lambda g: g.id)
    for g in test:
        for other in corpus:
            wanted.append((g, other, "test"))

    pairs = []
    labeled = [0]
    dropped = dict.fromkeys(("train", "val", "test"), 0)
    dropped_expansions = 0
    token = _expansion_tally.set(labeled)
    try:
        for g1, g2, split in wanted:
            try:
                pairs.append(_label_pair(g1, g2, split, budget))
            except GedBudgetExceeded as exc:
                dropped[split] += 1
                dropped_expansions += exc.expansions
    finally:
        _expansion_tally.reset(token)
    kept = {p.split for p in pairs}
    for split, n_dropped in dropped.items():
        if split not in kept:
            raise ValueError(
                f"no {split} pair left: {n_dropped} {split} pairs dropped over budget"
            )
    alphabet = tuple(str(i) for i in range(alphabet_size))
    ds = Dataset(alphabet, graphs, pairs)
    report = GenReport(n_graphs, len(pairs), sum(dropped.values()), labeled[0] + dropped_expansions)
    return ds, report
