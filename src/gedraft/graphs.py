"""Labeled undirected simple graphs and the operations that produce them.

Node ids are contiguous ``0..n-1``; labels are indices into a categorical
alphabet; edges are stored as a sorted tuple of ``(u, v)`` pairs with
``u < v``. The unlabeled case is a 1-symbol alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rng import SplitMix64


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Graph:
    """A frozen graph with tuple fields, so what is derived from it (the
    neighbour masks, the label and edge arrays, the ``validate`` result) is
    computed once and cached on the instance."""

    id: str
    labels: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @staticmethod
    def make(gid: str, labels, edges) -> "Graph":
        """Normalize edge orientation/order and build a Graph."""
        norm = sorted({(min(u, v), max(u, v)) for (u, v) in edges})
        return Graph(gid, tuple(int(x) for x in labels), tuple(norm))

    @staticmethod
    def from_json(doc) -> "Graph":
        """The graph of a parsed ``{"id": str, "labels": [int], "edges":
        [[u, v], ...]}`` record.

        Raises ValueError for a record of any other shape. Labels and
        endpoints must be JSON integers: a float or a boolean is rejected,
        not truncated. The graph's invariants are left to ``validate``.
        """
        if not isinstance(doc, dict):
            raise ValueError("graph record must be an object")
        missing = [key for key in ("id", "labels", "edges") if key not in doc]
        if missing:
            raise ValueError(f"graph record lacks {', '.join(missing)}")
        gid, labels, edges = doc["id"], doc["labels"], doc["edges"]
        if not isinstance(gid, str):
            raise ValueError(f"graph id {gid!r} is not a string")
        if not isinstance(labels, list) or not all(type(x) is int for x in labels):
            raise ValueError(f"graph {gid!r}: labels must be a list of integers")
        if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and type(e[0]) is int and type(e[1]) is int
            for e in edges
        ):
            raise ValueError(f"graph {gid!r}: edges must be a list of [u, v] integer pairs")
        return Graph.make(gid, labels, edges)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def adjacency_masks(self) -> list[int]:
        """Per-node neighbor bitmasks (node i's neighbors as set bits)."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """``adjacency_masks()`` as a tuple, computed once per graph: the
        search kernel's input."""
        return tuple(self.adjacency_masks())

    @cached_property
    def padded(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``masks`` and ``labels``, each with one more entry for node ``n``,
        a deleted node's image in a search assignment: no neighbours, and the
        label -1, which no node has. Computed once per graph."""
        return self.masks + (0,), self.labels + (-1,)

    @cached_property
    def max_label(self) -> int:
        """The largest label, or -1 without nodes; computed once per graph."""
        return max(self.labels, default=-1)

    @cached_property
    def label_array(self) -> np.ndarray:
        """The labels as a read-only intp array, computed once per graph: the
        encoder's input."""
        return _read_only(np.array(self.labels, dtype=np.intp))

    @cached_property
    def edge_array(self) -> np.ndarray:
        """The edges as a read-only (num_edges, 2) intp array, computed once
        per graph: the encoder's input."""
        return _read_only(np.array(self.edges, dtype=np.intp).reshape(-1, 2))

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        return tuple(validate(self))


@dataclass(frozen=True)
class SubgraphExtraction:
    """An induced subgraph together with the node map into its parent."""

    parent_id: str
    subgraph: Graph
    node_map: tuple[int, ...]  # subgraph node i -> parent node node_map[i]


def validate(g: Graph) -> list[str]:
    """Return every violated invariant; an empty list means valid."""
    violations = []
    n = g.n
    if n < 1:
        violations.append("graph must have at least one node")
    # exactly int: a bool would be searched as 0 or 1, and other types fail
    # the comparisons below with TypeError
    for i, lab in enumerate(g.labels):
        if type(lab) is not int or lab < 0:
            violations.append(f"label {lab!r} of node {i} is not a non-negative integer")
    seen = set()
    for u, v in g.edges:
        if type(u) is not int or type(v) is not int:
            violations.append(f"edge ({u!r},{v!r}) endpoints are not both integers")
            continue
        if u == v:
            violations.append(f"self-loop at node {u}")
            continue
        if u > v:
            violations.append(f"edge ({u},{v}) not stored smaller-id-first")
        if u < 0 or v >= n or u >= n or v < 0:
            violations.append(f"edge ({u},{v}) endpoint out of range for n={n}")
        key = (min(u, v), max(u, v))
        if key in seen:
            violations.append(f"duplicate edge ({u},{v})")
        seen.add(key)
    return violations


def require_valid(g: Graph) -> None:
    """Raise ValueError listing ``validate(g)``, which each graph runs once."""
    if g._violations:
        raise ValueError(f"invalid graph {g.id!r}: " + "; ".join(g._violations))


def generate_er(n: int, p: float, alphabet_size: int, seed: int, gid: str | None = None) -> Graph:
    """Erdos-Renyi G(n, p) with uniform labels, deterministic given seed.

    Candidate edges are visited in lexicographic (u, v) order; labels are
    drawn first, one uniform draw per node.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"need 0 <= p <= 1, got {p}")
    if alphabet_size < 1:
        raise ValueError(f"need alphabet_size >= 1, got {alphabet_size}")
    rng = SplitMix64(seed)
    labels = [rng.randrange(alphabet_size) for _ in range(n)]
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.uniform() < p:
                edges.append((u, v))
    return Graph.make(gid if gid is not None else f"er-{n}-{seed}", labels, edges)


def permute(g: Graph, pi) -> Graph:
    """Relabel nodes by the bijection pi: node i moves to position pi[i]."""
    pi = list(pi)
    if sorted(pi) != list(range(g.n)):
        raise ValueError("pi is not a bijection on 0..n-1")
    labels = [0] * g.n
    for i, lab in enumerate(g.labels):
        labels[pi[i]] = lab
    edges = [(pi[u], pi[v]) for u, v in g.edges]
    return Graph.make(g.id, labels, edges)


def perturb_trace(g: Graph, k: int, seed: int, alphabet_size: int | None = None):
    """Apply k uniformly chosen valid edits; returns (graph, applied ops).

    Each step draws one operator, uniformly, from those applicable within
    the remaining budget, listed in this order: insert a node; delete node
    i, for each i (with at least two nodes); relabel node i, for each i
    (with an alphabet above one symbol); and for each node pair (u, v) in
    lexicographic order, delete or insert its edge. Deleting a non-isolated
    node first deletes its incident edges, each counting as one edit; such a
    deletion is only applicable when the whole bundle fits in the remaining
    budget. Inserting a node always is, so every step applies an operator.
    The draw's index is mapped to its operator without listing them.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    if alphabet_size is None:
        alphabet_size = max(g.labels) + 1 if g.labels else 1
    rng = SplitMix64(seed)
    labels = list(g.labels)
    edges = set(g.edges)
    applied: list[tuple] = []
    remaining = k
    while remaining > 0:
        n = len(labels)
        deletable = []
        if n >= 2:
            degree = [0] * n
            for u, v in edges:
                degree[u] += 1
                degree[v] += 1
            deletable = [i for i in range(n) if degree[i] < remaining]
        relabels = n if alphabet_size > 1 else 0
        r = rng.randrange(1 + len(deletable) + relabels + n * (n - 1) // 2) - 1
        if r < 0:
            labels.append(rng.randrange(alphabet_size))
            applied.append(("node-insert",))
            remaining -= 1
            continue
        if r < len(deletable):
            i = deletable[r]
            incident = [(u, v) for (u, v) in edges if u == i or v == i]
            for e in incident:
                edges.remove(e)
                applied.append(("edge-delete", *e))
                remaining -= 1
            # renumber nodes above i down by one
            labels.pop(i)
            edges = {
                (min(u - (u > i), v - (v > i)), max(u - (u > i), v - (v > i)))
                for (u, v) in edges
            }
            applied.append(("node-delete", i))
            remaining -= 1
            continue
        r -= len(deletable)
        if r < relabels:
            new = rng.randrange(alphabet_size - 1)
            if new >= labels[r]:
                new += 1
            labels[r] = new
            applied.append(("node-relabel", r, new))
            remaining -= 1
            continue
        r -= relabels
        # the r-th node pair: row u holds the n - 1 - u pairs (u, v > u)
        u = 0
        while r >= n - 1 - u:
            r -= n - 1 - u
            u += 1
        e = (u, u + 1 + r)
        if e in edges:
            edges.remove(e)
            applied.append(("edge-delete", *e))
        else:
            edges.add(e)
            applied.append(("edge-insert", *e))
        remaining -= 1
    return Graph.make(g.id, labels, edges), applied


def perturb(g: Graph, k: int, seed: int, alphabet_size: int | None = None) -> Graph:
    return perturb_trace(g, k, seed, alphabet_size)[0]


def random_walk_subgraph(g: Graph, seed: int) -> SubgraphExtraction:
    """Induced subgraph on the nodes visited by a floor(n/2)-step random walk.

    The walk starts at a uniform node and takes uniform-neighbor steps; it
    halts early if it reaches an isolated node. Sampled node ids are
    renumbered contiguously preserving relative order.
    """
    if g.n < 2:
        raise ValueError(f"random walk needs n >= 2, got n={g.n}")
    rng = SplitMix64(seed)
    adj = g.neighbors()
    steps = max(1, g.n // 2)
    cur = rng.randrange(g.n)
    visited = {cur}
    for _ in range(steps):
        if not adj[cur]:
            break
        cur = adj[cur][rng.randrange(len(adj[cur]))]
        visited.add(cur)
    node_map = tuple(sorted(visited))
    return extract_induced(g, node_map)


def extract_induced(g: Graph, node_map) -> SubgraphExtraction:
    """Induced subgraph of g on the given (injective) parent node list."""
    node_map = tuple(node_map)
    if len(set(node_map)) != len(node_map):
        raise ValueError("node_map must be injective")
    index = {p: i for i, p in enumerate(node_map)}
    labels = [g.labels[p] for p in node_map]
    edges = [
        (index[u], index[v]) for u, v in g.edges if u in index and v in index
    ]
    sub = Graph.make(f"{g.id}/sub", labels, edges)
    return SubgraphExtraction(g.id, sub, node_map)


def remaining_subgraph(g: Graph, ex: SubgraphExtraction):
    """Delete the subgraph's edges from g, then drop all isolated nodes.

    Survivor nodes are renumbered contiguously. Returns None when nothing
    survives.
    """
    if ex.parent_id != g.id:
        raise ValueError(
            f"extraction parent {ex.parent_id!r} does not match graph {g.id!r}"
        )
    mapped_edges = {
        (min(ex.node_map[u], ex.node_map[v]), max(ex.node_map[u], ex.node_map[v]))
        for (u, v) in ex.subgraph.edges
    }
    kept = [e for e in g.edges if e not in mapped_edges]
    incident = set()
    for u, v in kept:
        incident.add(u)
        incident.add(v)
    survivors = sorted(incident)
    if not survivors:
        return None
    index = {p: i for i, p in enumerate(survivors)}
    labels = [g.labels[p] for p in survivors]
    edges = [(index[u], index[v]) for u, v in kept]
    return Graph.make(f"{g.id}/rem", labels, edges)


def check_extraction(g: Graph, ex: SubgraphExtraction) -> list[str]:
    """Induced-subgraph invariants of a SubgraphExtraction, as violations."""
    violations = []
    if len(set(ex.node_map)) != len(ex.node_map):
        violations.append("node_map not injective")
    if len(ex.node_map) != ex.subgraph.n:
        violations.append("node_map length differs from subgraph size")
    for i, p in enumerate(ex.node_map):
        if not 0 <= p < g.n:
            violations.append(f"node_map[{i}]={p} out of range")
            return violations
        if g.labels[p] != ex.subgraph.labels[i]:
            violations.append(f"label mismatch at subgraph node {i}")
    image = set(ex.node_map)
    expected = {
        (min(ex.node_map[u], ex.node_map[v]), max(ex.node_map[u], ex.node_map[v]))
        for (u, v) in ex.subgraph.edges
    }
    actual = {e for e in g.edges if e[0] in image and e[1] in image}
    if expected != actual:
        violations.append("subgraph is not induced: edge sets differ under node_map")
    return violations
