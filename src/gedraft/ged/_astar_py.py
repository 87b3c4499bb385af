"""Pure-Python best-first search kernel for exact unit-cost GED.

``solve`` first orients the pair: it searches from the graph with the
smaller (node count, edge count), g1 on a tie, since unit-cost GED is
symmetric (see the docstring of gedraft.ged.core). It renumbers that graph's
nodes in connectivity-first order (``connectivity_order``), so that each node
is constrained by many already-processed neighbours, and maps the best
assignment back to the caller's g1 ids. Expansions are those of the
oriented, renumbered search.

Below, g1 is the searched graph, so n1 <= n2. States are partial
assignments of its nodes, processed in the renumbered order; node i is
either mapped to an unused g2 node or deleted (encoded as n2). Costs are
charged so that every node edit and every edge edit is counted exactly once:

* mapping/deleting node i charges its node edit plus all edge edits between
  i and already-processed g1 nodes, and all g2 edges between i's image and
  already-used g2 nodes that are not images of g1 edges;
* completion charges one insertion per unused g2 node plus one per g2 edge
  with at least one unused endpoint.

Before the first pop, a greedy assignment (``_greedy``) seeds the best cost
and assignment: each node in search order goes to the unused g2 node with
the least added cost, the lowest on ties. So the search always holds a
complete assignment, and a budget that runs out still returns a bound.

The lower bound of a state at depth i (``heuristic``) is the label-multiset
bound on the unprocessed/unused nodes, plus the cross-edge term
``sum |d1(u) - d2(u)|`` over the processed nodes u, plus the gap between the
edge counts inside the unprocessed g1 nodes and inside the unused g2 nodes;
``heuristic`` spells out d1 and d2, and the docstring of gedraft.ged.core
proves the sum admissible.

Tie-breaking is deterministic: (f, g descending, assignment lexicographic).

This module is the readable reference. The compiled kernel in _astar.c
visits the same states in the same order and returns the same results.
"""

from __future__ import annotations

import heapq

MAX_NODES = 64  # node sets are 64-bit masks in the compiled kernel, _astar.c


def _popcount(x: int) -> int:
    return bin(x).count("1")


def connectivity_order(adj):
    """The search order of a graph's nodes, given its neighbour bitmasks.

    The highest-degree node comes first; then, each time, the unplaced node
    with the most edges into the placed ones, ties to the higher degree, then
    the lower id.
    """
    n = len(adj)
    deg = [_popcount(m) for m in adj]
    order = []
    placed = 0
    for _ in range(n):
        best = max(
            (i for i in range(n) if not (placed >> i) & 1),
            key=lambda i: (_popcount(adj[i] & placed), deg[i], -i),
        )
        order.append(best)
        placed |= 1 << best
    return order


def _check_graph(name, n, labels, adj):
    """ValueError unless there are n labels and n neighbour masks, each a
    set of other nodes in 0..n-1, and every edge is listed at both ends."""
    if len(labels) != n or len(adj) != n:
        raise ValueError(f"{name}: expected {n} labels and neighbour masks")
    for i, m in enumerate(adj):
        if m < 0 or m >> n or (m >> i) & 1:
            raise ValueError(
                f"{name}: neighbour mask of node {i} is not a set of other nodes in 0..{n - 1}"
            )
    for i, m in enumerate(adj):
        for j in range(n):
            if (m >> j) & 1 and not (adj[j] >> i) & 1:
                raise ValueError(
                    f"{name}: neighbour masks are not symmetric: node {i} lists {j}, "
                    f"but {j} does not list {i}"
                )


def solve(n1, labels1, adj1, n2, labels2, adj2, alphabet_size, budget, /):
    """Search for a minimal assignment.

    adj1/adj2 are per-node neighbor bitmasks. Returns
    (cost, assignment, expansions, optimal) where assignment[i] in 0..n2
    (n2 = deleted) is the image of g1's node i. When the expansion budget
    runs out before optimality is proven, returns optimal=False with the best
    complete assignment found so far, at worst the greedy one, and its cost.

    Raises ValueError for a graph with a node count outside 0..MAX_NODES
    (the compiled kernel's bitmask limit), an alphabet_size outside
    0..2 * MAX_NODES (a dense alphabet of two graphs' labels needs no more),
    a label outside 0..alphabet_size-1, or neighbour masks that are not those
    of a simple undirected graph.
    """
    if not (0 <= n1 <= MAX_NODES and 0 <= n2 <= MAX_NODES):
        raise ValueError(f"graphs must have 0..{MAX_NODES} nodes, got {n1} and {n2}")
    if alphabet_size < 0:
        raise ValueError(f"alphabet_size must be >= 0, got {alphabet_size}")
    if alphabet_size > 2 * MAX_NODES:
        raise ValueError(f"alphabet_size must be at most {2 * MAX_NODES}, got {alphabet_size}")
    for lab in (*labels1, *labels2):
        if not 0 <= lab < alphabet_size:
            raise ValueError(f"label {lab} outside 0..{alphabet_size - 1}")
    _check_graph("g1", n1, labels1, adj1)
    _check_graph("g2", n2, labels2, adj2)
    e1 = sum(_popcount(m) for m in adj1) // 2
    e2 = sum(_popcount(m) for m in adj2) // 2
    swap = (n2, e2) < (n1, e1)
    if swap:
        n1, labels1, adj1, n2, labels2, adj2 = n2, labels2, adj2, n1, labels1, adj1
    order = connectivity_order(adj1)
    pos = {u: k for k, u in enumerate(order)}
    adj1 = [
        sum(1 << pos[w] for w in range(n1) if (adj1[u] >> w) & 1) for u in order
    ]
    labels1 = [labels1[u] for u in order]
    cost, found, expansions, optimal = _search(
        n1, labels1, adj1, n2, labels2, adj2, alphabet_size, budget
    )
    # found[k] is the image of node order[k] of the searched graph
    assign = [None] * n1
    for k, v in enumerate(found):
        assign[order[k]] = v
    if swap:
        # invert: the caller's g1 is the searched g2
        inverse = [n1] * n2
        for u, v in enumerate(assign):
            if v != n2:
                inverse[v] = u
        assign = inverse
    return cost, tuple(assign), expansions, optimal


def _greedy(n1, labels1, adj1, n2, labels2, adj2, e2_total):
    """(cost, assignment) of mapping each g1 node in order to the unused g2
    node with the least added cost, the lowest on ties. Needs n1 <= n2."""
    assign = []
    used_mask = 0
    g = e2_used = 0
    for k in range(n1):
        image = 0  # images of k's neighbours among 0..k-1
        for w in range(k):
            if (adj1[k] >> w) & 1:
                image |= 1 << assign[w]
        add, v = min(
            ((labels1[k] != labels2[v]) + _popcount(image ^ (adj2[v] & used_mask)), v)
            for v in range(n2)
            if not (used_mask >> v) & 1
        )
        assign.append(v)
        g += add
        e2_used += _popcount(adj2[v] & used_mask)
        used_mask |= 1 << v
    return g + (n2 - n1) + (e2_total - e2_used), tuple(assign)


def _search(n1, labels1, adj1, n2, labels2, adj2, alphabet_size, budget):
    """The best-first search over assignments of g1's nodes in id order."""
    e2_total = sum(_popcount(m) for m in adj2) // 2
    if n1 == 0:
        # nothing to assign: insert all of g2
        return n2 + e2_total, (), 0, True

    # label counts of the g1 suffix starting at i, and edges inside the prefix
    suffix_counts = [[0] * alphabet_size for _ in range(n1 + 1)]
    for i in range(n1 - 1, -1, -1):
        row = suffix_counts[i + 1][:]
        row[labels1[i]] += 1
        suffix_counts[i] = row
    prefix_mask = [0] * (n1 + 1)
    for i in range(n1):
        prefix_mask[i + 1] = prefix_mask[i] | (1 << i)
    e1_prefix = [0] * (n1 + 1)
    for i in range(n1):
        e1_prefix[i + 1] = e1_prefix[i] + _popcount(adj1[i] & prefix_mask[i])
    e1_total = e1_prefix[n1]

    count2_all = [0] * alphabet_size
    for lab in labels2:
        count2_all[lab] += 1

    def heuristic(assign, used_mask, e2_used):
        """Lower bound on the cost still to pay from the state ``assign``."""
        i = len(assign)
        r1 = n1 - i
        r2 = n2 - _popcount(used_mask)
        c1 = suffix_counts[i]
        overlap = 0
        for lab in range(alphabet_size):
            c2 = count2_all[lab] - _used_label_counts[lab]
            overlap += min(c1[lab], c2)
        node_bound = max(r1, r2) - overlap
        # cross edges of each processed u: d1 into the unprocessed g1 nodes
        # U1, d2 from its image into the unused g2 nodes U2; a mask holds no
        # node beyond its graph, so the complements serve as U1 and U2
        u1, u2 = ~prefix_mask[i], ~used_mask
        cross = cut1 = cut2 = 0
        for u, v in enumerate(assign):
            d1 = _popcount(adj1[u] & u1)
            d2 = _popcount(adj2[v] & u2) if v != n2 else 0
            cross += abs(d1 - d2)
            cut1 += d1
            cut2 += d2
        # edges inside U1 and inside U2
        inner1 = e1_total - e1_prefix[i] - cut1
        inner2 = e2_total - e2_used - cut2
        return node_bound + cross + abs(inner1 - inner2)

    def completion_cost(used_mask, e2_used):
        return (n2 - _popcount(used_mask)) + (e2_total - e2_used)

    # label counts of used g2 nodes, keyed per state: recomputed on pop
    _used_label_counts = [0] * alphabet_size
    best_cost, best_assign = _greedy(n1, labels1, adj1, n2, labels2, adj2, e2_total)
    heap = [(heuristic((), 0, 0), 0, ())]
    expansions = 0
    while heap:
        f, neg_g, assign = heapq.heappop(heap)
        g = -neg_g
        if f >= best_cost:
            break
        if expansions >= budget:
            return best_cost, best_assign, expansions, False
        expansions += 1
        i = len(assign)

        used_mask = 0
        e2_used = 0
        for lab in range(alphabet_size):
            _used_label_counts[lab] = 0
        for w, vw in enumerate(assign):
            if vw != n2:
                e2_used += _popcount(adj2[vw] & used_mask)
                used_mask |= 1 << vw
                _used_label_counts[labels2[vw]] += 1

        proc_mask = prefix_mask[i]
        # branch: delete node i
        delta = 1 + _popcount(adj1[i] & proc_mask)
        g_child = g + delta
        child = assign + (n2,)
        if i + 1 == n1:
            total = g_child + completion_cost(used_mask, e2_used)
            if total < best_cost:
                best_cost, best_assign = total, child
        else:
            h = heuristic(child, used_mask, e2_used)
            if g_child + h < best_cost:
                heapq.heappush(heap, (g_child + h, -g_child, child))

        # branch: map node i to each unused v
        for v in range(n2):
            if (used_mask >> v) & 1:
                continue
            delta = 1 if labels1[i] != labels2[v] else 0
            # edge edits between i and processed g1 nodes; every used g2
            # node is the image of some mapped w, so the XOR also charges
            # insertions of g2 edges from v into the used set
            for w in range(i):
                e1 = (adj1[i] >> w) & 1
                vw = assign[w]
                e2 = (adj2[v] >> vw) & 1 if vw != n2 else 0
                delta += e1 ^ e2
            g_child = g + delta
            child = assign + (v,)
            new_used = used_mask | (1 << v)
            new_e2_used = e2_used + _popcount(adj2[v] & used_mask)
            if i + 1 == n1:
                total = g_child + completion_cost(new_used, new_e2_used)
                if total < best_cost:
                    best_cost, best_assign = total, child
            else:
                _used_label_counts[labels2[v]] += 1
                h = heuristic(child, new_used, new_e2_used)
                _used_label_counts[labels2[v]] -= 1
                if g_child + h < best_cost:
                    heapq.heappush(heap, (g_child + h, -g_child, child))
    return best_cost, best_assign, expansions, True
