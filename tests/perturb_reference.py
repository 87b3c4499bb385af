"""Random perturbation by listing every applicable operator: the reference
``gedraft.graphs.perturb_trace`` is compared with.

Each step lists the operators applicable within the remaining budget, in
``_applicable_ops``'s order, and applies ``ops[rng.randrange(len(ops))]``.
``graphs.perturb_trace`` maps the same draw to its operator without the
list; both must return the same graph and the same applied operators.
"""

from __future__ import annotations

from gedraft.graphs import Graph
from gedraft.rng import SplitMix64


def _applicable_ops(g: Graph, remaining: int, alphabet_size: int) -> list[tuple]:
    """Concrete edit operators applicable within the remaining budget."""
    ops: list[tuple] = []
    degree = [0] * g.n
    for u, v in g.edges:
        degree[u] += 1
        degree[v] += 1
    ops.append(("node-insert",))
    if g.n >= 2:
        for i in range(g.n):
            if degree[i] + 1 <= remaining:
                ops.append(("node-delete", i))
    if alphabet_size > 1:
        for i in range(g.n):
            ops.append(("node-relabel", i))
    edge_set = set(g.edges)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if (u, v) in edge_set:
                ops.append(("edge-delete", u, v))
            else:
                ops.append(("edge-insert", u, v))
    return ops


def perturb_trace(g: Graph, k: int, seed: int, alphabet_size: int | None = None):
    """Apply k uniformly chosen valid edits; returns (graph, applied ops)."""
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
        cur = Graph.make(g.id, labels, edges)
        ops = _applicable_ops(cur, remaining, alphabet_size)
        op = ops[rng.randrange(len(ops))]
        kind = op[0]
        if kind == "node-insert":
            labels.append(rng.randrange(alphabet_size))
            applied.append(op)
            remaining -= 1
        elif kind == "node-delete":
            i = op[1]
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
            applied.append(op)
            remaining -= 1
        elif kind == "node-relabel":
            i = op[1]
            new = rng.randrange(alphabet_size - 1)
            if new >= labels[i]:
                new += 1
            labels[i] = new
            applied.append((kind, i, new))
            remaining -= 1
        elif kind == "edge-insert":
            edges.add((op[1], op[2]))
            applied.append(op)
            remaining -= 1
        else:  # edge-delete
            edges.remove((op[1], op[2]))
            applied.append(op)
            remaining -= 1
    return Graph.make(g.id, labels, edges), applied
