"""Graph checks that only the tests use: node relabeling by a permutation,
and the invariants of an induced-subgraph extraction."""

from __future__ import annotations

from gedraft.graphs import Graph, SubgraphExtraction


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
