import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perturb_reference
from gedraft.graphs import (
    Graph,
    extract_induced,
    generate_er,
    perturb,
    perturb_trace,
    random_walk_subgraph,
    remaining_subgraph,
    require_valid,
    validate,
)
from graph_reference import check_extraction, permute

TRIANGLE_PENDANT = Graph.make("tp", [0, 1, 0, 2], [(0, 1), (1, 2), (0, 2), (2, 3)])


def graphs_strategy(max_n=8, alphabet=3):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        labels = draw(st.lists(st.integers(0, alphabet - 1), min_size=n, max_size=n))
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [e for e in pool if draw(st.booleans())]
        return Graph.make("h", labels, edges)

    return build()


def test_make_normalizes_edges():
    g = Graph.make("g", [0, 1, 2], [(2, 1), (1, 2), (0, 2)])
    assert g.edges == ((0, 2), (1, 2))
    assert g.n == 3 and g.num_edges == 2


def test_validate_catches_violations():
    assert validate(Graph("g", (0,), ())) == []
    assert any("self-loop" in v for v in validate(Graph("g", (0, 1), ((1, 1),))))
    assert any("out of range" in v for v in validate(Graph("g", (0,), ((0, 3),))))
    assert any("smaller-id-first" in v for v in validate(Graph("g", (0, 1), ((1, 0),))))
    assert any("duplicate" in v for v in validate(Graph("g", (0, 1), ((0, 1), (0, 1)))))
    assert any("at least one node" in v for v in validate(Graph("g", (), ())))
    assert any("non-negative integer" in v for v in validate(Graph("g", (0, -1), ())))
    assert any("non-negative integer" in v for v in validate(Graph("g", (0.5,), ())))
    assert any("non-negative integer" in v for v in validate(Graph("g", ("a",), ())))
    assert any("non-negative integer" in v for v in validate(Graph("g", (0, True), ())))
    for edge in (("a", 1), (0, True), (0, 1.0), (None, 1)):
        assert any("not both integers" in v for v in validate(Graph("g", (0, 1), (edge,))))
    with pytest.raises(ValueError):
        require_valid(Graph("g", (), ()))


def test_adjacency_representations_agree():
    g = TRIANGLE_PENDANT
    masks = g.adjacency_masks()
    nbrs = g.neighbors()
    for u in range(g.n):
        for v in range(g.n):
            edge = (min(u, v), max(u, v)) in g.edges
            assert bool((masks[u] >> v) & 1) == (v in nbrs[u]) == edge
    assert sorted(nbrs[2]) == [0, 1, 3]


def test_generate_er_deterministic_and_valid():
    g1 = generate_er(7, 0.5, 3, seed=11)
    g2 = generate_er(7, 0.5, 3, seed=11)
    assert g1 == g2
    assert validate(g1) == []
    assert generate_er(7, 0.5, 3, seed=12) != g1


def test_generate_er_extreme_p():
    assert generate_er(5, 0.0, 2, seed=1).num_edges == 0
    assert generate_er(5, 1.0, 2, seed=1).num_edges == 10


def test_generate_er_rejects_bad_args():
    with pytest.raises(ValueError):
        generate_er(0, 0.5, 2, seed=1)
    with pytest.raises(ValueError):
        generate_er(3, 1.5, 2, seed=1)
    with pytest.raises(ValueError):
        generate_er(3, 0.5, 0, seed=1)


def test_permute_roundtrip_and_validation():
    g = TRIANGLE_PENDANT
    pi = [2, 0, 3, 1]
    h = permute(g, pi)
    assert validate(h) == []
    inv = [0] * g.n
    for i, p in enumerate(pi):
        inv[p] = i
    assert permute(h, inv).labels == g.labels
    assert permute(h, inv).edges == g.edges
    with pytest.raises(ValueError):
        permute(g, [0, 0, 1, 2])


@settings(max_examples=50, deadline=None)
@given(graphs_strategy(), st.integers(0, 2**32))
def test_perturb_valid_and_bounded(g, seed):
    out, applied = perturb_trace(g, 3, seed, alphabet_size=3)
    assert validate(out) == []
    assert len(applied) == 3  # inserting a node is always applicable


@settings(max_examples=400, deadline=None)
@given(
    graphs_strategy(max_n=9),
    st.integers(0, 5),
    st.integers(0, 2**64 - 1),
    st.sampled_from([1, 2, 3]),
)
def test_perturb_picks_the_operator_the_listed_operators_give(g, k, seed, alphabet_size):
    # the labels are drawn from 0..2, so alphabets of 1 and 2 are narrower
    # than the graph's: with 1 no relabel is listed, and inserted nodes get
    # label 0
    got = perturb_trace(g, k, seed, alphabet_size)
    assert got == perturb_reference.perturb_trace(g, k, seed, alphabet_size)


def test_perturb_zero_is_identity():
    g = TRIANGLE_PENDANT
    assert perturb(g, 0, seed=5, alphabet_size=3) == g
    with pytest.raises(ValueError):
        perturb(g, -1, seed=5, alphabet_size=3)


def test_perturb_node_delete_counts_incident_edges():
    # one edit can never delete a node that has any incident edge
    g = Graph.make("g", [0, 0], [(0, 1)])
    for seed in range(30):
        out, applied = perturb_trace(g, 1, seed, alphabet_size=1)
        kinds = [op[0] for op in applied]
        if "node-delete" in kinds:
            raise AssertionError(f"node with an edge deleted in one edit: {applied}")


def test_extract_induced_and_check():
    g = TRIANGLE_PENDANT
    ex = extract_induced(g, (0, 2, 3))
    assert ex.subgraph.labels == (0, 0, 2)
    assert ex.subgraph.edges == ((0, 1), (1, 2))
    assert check_extraction(g, ex) == []
    bad = extract_induced(g, (0, 2))
    object.__setattr__(bad.subgraph, "labels", (1, 0))
    assert check_extraction(g, bad)


def test_random_walk_subgraph_properties():
    g = TRIANGLE_PENDANT
    for seed in range(40):
        ex = random_walk_subgraph(g, seed)
        assert check_extraction(g, ex) == []
        assert 1 <= ex.subgraph.n <= g.n
    with pytest.raises(ValueError):
        random_walk_subgraph(Graph.make("one", [0], []), 0)


def test_random_walk_halts_on_isolated_node():
    g = Graph.make("iso", [0, 1, 2], [])
    ex = random_walk_subgraph(g, 3)
    assert ex.subgraph.n == 1


def test_remaining_subgraph_triangle_example():
    # triangle, subgraph nodes {0,1} with edge (0,1): deleting that edge
    # isolates no node, so the remainder is the 3-node path 0-2-1
    tri = Graph.make("t", [0, 0, 0], [(0, 1), (0, 2), (1, 2)])
    ex = extract_induced(tri, (0, 1))
    rem = remaining_subgraph(tri, ex)
    assert rem.n == 3
    assert rem.edges == ((0, 2), (1, 2))


def test_remaining_subgraph_empty():
    g = Graph.make("p", [0, 1], [(0, 1)])
    ex = extract_induced(g, (0, 1))
    assert remaining_subgraph(g, ex) is None


def test_remaining_subgraph_wrong_parent():
    g = TRIANGLE_PENDANT
    ex = extract_induced(Graph.make("other", [0, 1], [(0, 1)]), (0, 1))
    with pytest.raises(ValueError):
        remaining_subgraph(g, ex)


@settings(max_examples=40, deadline=None)
@given(graphs_strategy(max_n=7), st.integers(0, 2**32))
def test_remaining_subgraph_valid_and_smaller(g, seed):
    if g.n < 2:
        return
    ex = random_walk_subgraph(g, seed)
    rem = remaining_subgraph(g, ex)
    if rem is not None:
        assert validate(rem) == []
        assert rem.num_edges == g.num_edges - ex.subgraph.num_edges


def test_cached_masks_equal_adjacency_masks():
    for seed in range(20):
        g = generate_er(1 + seed % 8, 0.5, 2, seed=seed, gid="g")
        assert g.masks == tuple(g.adjacency_masks())
        assert g.masks is g.masks


@pytest.mark.parametrize(
    "doc, message",
    [
        ([], "object"),
        ({"id": "g", "labels": [0]}, "edges"),
        ({"id": 3, "labels": [0], "edges": []}, "id"),
        ({"id": "g", "labels": [0, 1.7], "edges": []}, "labels"),
        ({"id": "g", "labels": [0, True], "edges": []}, "labels"),
        ({"id": "g", "labels": 5, "edges": []}, "labels"),
        ({"id": "g", "labels": [0, 1], "edges": [[0]]}, "edges"),
        ({"id": "g", "labels": [0, 1], "edges": [[0, 1.0]]}, "edges"),
        ({"id": "g", "labels": [0, 1], "edges": [[0, False]]}, "edges"),
        ({"id": "g", "labels": [0, 1], "edges": "01"}, "edges"),
    ],
)
def test_graph_from_json_rejects_malformed_records(doc, message):
    with pytest.raises(ValueError, match=message):
        Graph.from_json(doc)


def test_graph_from_json_normalizes_like_make():
    doc = {"id": "g", "labels": [0, 2, 1], "edges": [[2, 1], [0, 2]], "extra": None}
    assert Graph.from_json(doc) == Graph.make("g", [0, 2, 1], [(1, 2), (0, 2)])
