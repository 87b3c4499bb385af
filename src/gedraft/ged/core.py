"""GED search wrapper, brute-force verifier, bounds, and scores.

Admissibility of the lower bound used here and inside the search:

* Node bound. Any edit path induces a partial label-preserving-or-relabeled
  matching between the two node sets. At most ``sum_l min(c1[l], c2[l])``
  nodes can be matched without a relabel, so at least
  ``max(N1, N2) - sum_l min(c1[l], c2[l])`` node operators (relabels plus
  insertions/deletions, each counted once) are required.
* Edge bound. Every edge operator changes the edge count by exactly one and
  node operators never change it (deleting a non-isolated node requires its
  edge deletions first, which are separate operators), so at least
  ``|E1 - E2|`` edge operators are required.

The two bounds charge disjoint operator kinds, so their sum is a lower
bound on the true GED. It is the search's bound at the root.

Inside the search, a state at depth i fixes the partial assignment f of
g1's nodes 0..i-1 (the processed nodes; the rest, U1, are unprocessed) and
leaves the g2 nodes U2 unused. The node bound applies to U1 and U2 as
above. The edge edits still to pay split into two disjoint kinds:

* Cross edges, with one processed endpoint u. Let ``d1(u)`` count u's
  edges into U1, and ``d2(u)`` the edges from f(u) into U2, or 0 when u is
  deleted. A cross edge (u, j) with j in U1 is kept only by the g2 edge
  (f(u), f(j)) with f(j) in U2, so at most ``min(d1(u), d2(u))`` of u's are
  kept and at least ``|d1(u) - d2(u)|`` edits fall on them. Each used g2
  node is the image of exactly one mapped u, so these edge sets are
  disjoint for different u, on both sides, and the terms add up.
* Inner edges, with both endpoints unprocessed or unused. A g1 edge inside
  U1 can only be kept by a g2 edge inside U2, so at least ``|I1 - I2|``
  edits fall on them, where I1 and I2 count the edges inside U1 and inside
  U2.

So ``max(r1, r2) - overlap + sum_u |d1(u) - d2(u)| + |I1 - I2|`` never
exceeds the cost still to pay. By the triangle inequality it is never below
the edge bound on the remaining edges, ``|E1_rem - E2_rem|``, where
``E1_rem = sum_u d1(u) + I1`` and ``E2_rem = sum_u d2(u) + I2``.

The search also starts from an upper bound: the cost of a greedy complete
assignment (see ``_astar_py``). Any complete assignment's cost is at least
the GED, so a search cut short by its budget still reports a bound.

Symmetry, which lets the kernels search from either graph:

* Reversing an edit path from g1 to g2 gives one from g2 to g1 of the same
  length under unit costs: deletions become insertions and back, and a
  relabel becomes the relabel back. So ``GED(g1, g2) = GED(g2, g1)``.
* In the kernels' terms, a node assignment (a partial injection of g1's
  nodes into g2's) and its inverse charge the same operators: one relabel
  per matched pair with different labels, one deletion or insertion per
  unmatched node on either side, and one edge edit per edge of either graph
  whose image is not an edge of the other.

So each kernel searches from the graph with the smaller (node count, edge
count) and inverts the optimal assignment when it swapped the two; the
result is an optimal assignment in the caller's g1 ids either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations

from ..graphs import Graph, require_valid
from ._astar_py import MAX_NODES  # both kernels' limit on a graph's nodes

try:
    from . import _astar as _kernel  # type: ignore[attr-defined]

    BACKEND = "c"
except ImportError:  # built without a C compiler
    from . import _astar_py as _kernel

    BACKEND = "python"

DEFAULT_BUDGET = 5_000_000
MAX_BUDGET = 2**63 - 1  # the C kernel counts expansions in a long long


@dataclass(frozen=True)
class EditOp:
    """One unit-cost edit operator.

    Operand conventions: edge-delete / node-delete / node-relabel use g1
    node ids; node-insert carries (g2_id, label); edge-insert uses g2 node
    ids (mapped g1 nodes are identified with their images).
    """

    kind: str
    operands: tuple

    def to_json(self):
        return {"kind": self.kind, "operands": list(self.operands)}


@dataclass(frozen=True)
class GedResult:
    """An optimal edit path from g1 to g2, held as the search's node
    assignment: ``assignment[u]`` is g1 node u's image in g2, or ``g2.n`` if
    u is deleted.

    ``path`` and ``mapping`` are built from the assignment the first time
    either is read, and kept; labeling reads only the cost.
    """

    cost: int
    assignment: tuple[int, ...]
    expansions: int
    g1: Graph = field(repr=False)
    g2: Graph = field(repr=False)

    @cached_property
    def _edit_path(self):
        path, mapping = _build_path(self.g1, self.g2, self.assignment)
        if len(path) != self.cost:
            raise AssertionError("path length disagrees with search cost")
        return path, mapping

    @property
    def path(self) -> tuple[EditOp, ...]:
        return self._edit_path[0]

    @property
    def mapping(self) -> tuple[tuple[int, int], ...]:
        """The matched (g1 node, g2 node) pairs."""
        return self._edit_path[1]

    def to_json(self):
        return {
            "cost": self.cost,
            "path": [op.to_json() for op in self.path],
            "mapping": [list(p) for p in self.mapping],
        }


class GedBudgetExceeded(Exception):
    """Search ran out of node expansions; carries the best upper bound, the
    cost of the best complete assignment the search held."""

    def __init__(self, best_cost, expansions):
        self.best_cost = best_cost
        self.expansions = expansions
        super().__init__(
            f"expansion budget exhausted after {expansions} expansions; "
            f"best upper bound: {best_cost}"
        )


def _alphabet_size(g1: Graph, g2: Graph) -> int:
    return max(max(g1.labels), max(g2.labels)) + 1


def ged_exact(g1: Graph, g2: Graph, budget: int = DEFAULT_BUDGET) -> GedResult:
    """Minimal-cost edit path from g1 to (a graph equal up to ids to) g2.

    The kernel's cost is checked against the edits its assignment implies;
    the path itself is built only when the result's ``path`` or ``mapping``
    is read. ValueError, before either kernel runs, for a budget that is not
    an ``int`` (a bool is not) in 0..MAX_BUDGET.
    """
    if type(budget) is not int or not 0 <= budget <= MAX_BUDGET:
        raise ValueError(f"budget must be an integer in 0..{MAX_BUDGET}, got {budget!r}")
    require_valid(g1)
    require_valid(g2)
    labels1, labels2 = g1.labels, g2.labels
    alphabet_size = _alphabet_size(g1, g2)
    if alphabet_size > len(labels1) + len(labels2):
        # The kernels keep counts per label value, so number a sparse
        # alphabet densely; only label equality matters to the search.
        dense = {lab: k for k, lab in enumerate(sorted({*labels1, *labels2}))}
        labels1 = tuple(dense[lab] for lab in labels1)
        labels2 = tuple(dense[lab] for lab in labels2)
        alphabet_size = len(dense)
    cost, assign, expansions, optimal = _kernel.solve(
        len(labels1), labels1, g1.masks, len(labels2), labels2, g2.masks,
        alphabet_size, budget,
    )
    if not optimal:
        raise GedBudgetExceeded(cost, expansions)
    if _edit_count(g1, g2, assign) != cost:
        raise AssertionError("edit count of the assignment disagrees with search cost")
    return GedResult(cost, assign, expansions, g1, g2)


def _edit_count(g1: Graph, g2: Graph, assign) -> int:
    """The length of ``_build_path(g1, g2, assign)`` for an injective
    ``assign``, counted without building the path."""
    n2 = len(g2.labels)
    # a deleted node's image n2 has no neighbours and a label no node has;
    # valid masks set no bit at or above n2
    adj2 = g2.masks + (0,)
    labels2 = g2.labels + (-1,)
    kept = 0
    for u, w in g1.edges:
        kept += adj2[assign[u]] >> assign[w] & 1
    unmatched = 0  # relabeled and deleted nodes
    for lab, v in zip(g1.labels, assign):
        if lab != labels2[v]:
            unmatched += 1
    inserted = n2 - len(g1.labels) + assign.count(n2)
    return len(g1.edges) - kept + len(g2.edges) - kept + unmatched + inserted


def _build_path(g1: Graph, g2: Graph, assign):
    """Expand a node assignment into an explicit edit path and the matched
    (g1 node, g2 node) pairs.

    ``assign[u]`` is g1 node u's image in g2, or ``g2.n`` if u is deleted.
    """
    labels2, adj2 = g2.labels, g2.masks
    n2 = len(labels2)
    path = []
    # kept[v]: the g2 neighbours of v joined to it by the image of a g1 edge
    kept = [0] * n2
    for u, w in g1.edges:
        a, b = assign[u], assign[w]
        if a != n2 and b != n2 and adj2[a] >> b & 1:
            kept[a] |= 1 << b
            kept[b] |= 1 << a
        else:
            path.append(EditOp("edge-delete", (u, w)))
    mapping = []
    relabels = []
    used = 0
    for u, (lab, v) in enumerate(zip(g1.labels, assign)):
        if v == n2:
            path.append(EditOp("node-delete", (u,)))
            continue
        mapping.append((u, v))
        used |= 1 << v
        if lab != labels2[v]:
            relabels.append(EditOp("node-relabel", (u, labels2[v])))
    path += relabels
    for v, lab in enumerate(labels2):
        if not used >> v & 1:
            path.append(EditOp("node-insert", (v, lab)))
    for v, w in g2.edges:
        if not kept[v] >> w & 1:
            path.append(EditOp("edge-insert", (v, w)))
    return tuple(path), tuple(mapping)


def apply_edit_path(g1: Graph, g2: Graph, result: GedResult) -> Graph:
    """Replay the edit path on g1; the outcome lives in g2's id space."""
    labels = dict(enumerate(g1.labels))
    edges = set(g1.edges)
    image = dict(result.mapping)
    for op in result.path:
        if op.kind == "edge-delete":
            u, w = op.operands
            edges.remove((min(u, w), max(u, w)))
        elif op.kind == "node-delete":
            (u,) = op.operands
            if any(u in e for e in edges):
                raise ValueError(f"deleting node {u} with incident edges")
            del labels[u]
    # rename survivors to their g2 images
    labels = {image[u]: lab for u, lab in labels.items()}
    edges = {
        (min(image[u], image[w]), max(image[u], image[w])) for u, w in edges
    }
    for op in result.path:
        if op.kind == "node-relabel":
            u, new = op.operands
            labels[image[u]] = new
        elif op.kind == "node-insert":
            v, lab = op.operands
            labels[v] = lab
        elif op.kind == "edge-insert":
            v, w = op.operands
            edges.add((min(v, w), max(v, w)))
    ids = sorted(labels)
    if ids != list(range(len(ids))):
        raise ValueError("replayed node set is not contiguous in g2 ids")
    return Graph.make(g2.id, [labels[i] for i in ids], edges)


BRUTEFORCE_MAX_N = 6


def ged_bruteforce(g1: Graph, g2: Graph) -> int:
    """Exhaustive minimum over injections of the smaller node set.

    With unit costs, deleting a node from the smaller graph while a free
    slot remains on the larger side is never strictly cheaper than mapping
    it, so full injections suffice.
    """
    if max(g1.n, g2.n) > BRUTEFORCE_MAX_N:
        raise ValueError(
            f"brute force limited to n <= {BRUTEFORCE_MAX_N}, "
            f"got {g1.n} and {g2.n}"
        )
    small, large = (g1, g2) if g1.n <= g2.n else (g2, g1)
    large_edges = set(large.edges)
    best = None
    for m in permutations(range(large.n), small.n):
        cost = large.n - small.n
        for i in range(small.n):
            if small.labels[i] != large.labels[m[i]]:
                cost += 1
        matched = 0
        for u, w in small.edges:
            a, b = m[u], m[w]
            if (min(a, b), max(a, b)) in large_edges:
                matched += 1
        cost += (small.num_edges - matched) + (large.num_edges - matched)
        if best is None or cost < best:
            best = cost
    return best


def nged(cost: int, n1: int, n2: int) -> float:
    """Edit cost normalized by the mean node count of the pair."""
    if n1 < 1 or n2 < 1:
        raise ValueError("node counts must be >= 1")
    return cost / ((n1 + n2) / 2)


def similarity(nged_value: float) -> float:
    """Similarity score exp(-nged), in (0, 1]."""
    if nged_value < 0:
        raise ValueError(f"nged must be >= 0, got {nged_value}")
    return math.exp(-nged_value)
