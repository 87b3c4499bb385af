import hashlib
import inspect
import json
import math
import random
import re
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gedraft import cli
from gedraft import graphs as G
from gedraft.ged import (
    GedBudgetExceeded,
    GedResult,
    apply_edit_path,
    edit_path,
    ged_bruteforce,
    ged_exact,
    nged,
    similarity,
)
from gedraft.ged import _astar_py, core
from graph_reference import permute


def rand_pair(trial, n_lo=3, n_hi=6, alphabet=3):
    g1 = G.generate_er(n_lo + trial % (n_hi - n_lo + 1), 0.4, alphabet, 1000 + trial, "a")
    g2 = G.generate_er(
        n_lo + (trial * 7) % (n_hi - n_lo + 1), 0.5, alphabet, 90000 + trial, "b"
    )
    return g1, g2


def _graph_doc(g):
    return {"id": g.id, "labels": list(g.labels), "edges": [list(e) for e in g.edges]}


def test_identical_graphs_zero():
    g = G.generate_er(6, 0.5, 3, seed=4, gid="x")
    h = G.Graph("y", g.labels, g.edges)
    res = ged_exact(g, h)
    assert res.cost == 0
    assert edit_path(g, h, res)[0] == ()


def test_single_relabel():
    g1 = G.Graph.make("a", [0, 1], [(0, 1)])
    g2 = G.Graph.make("b", [0, 2], [(0, 1)])
    res = ged_exact(g1, g2)
    assert res.cost == 1
    assert [op.kind for op in edit_path(g1, g2, res)[0]] == ["node-relabel"]


def test_single_edge_insert():
    g1 = G.Graph.make("a", [0, 0, 0], [(0, 1)])
    g2 = G.Graph.make("b", [0, 0, 0], [(0, 1), (1, 2)])
    assert ged_exact(g1, g2).cost == 1


def test_node_deletion_charges_incident_edges():
    star = G.Graph.make("a", [0, 0, 0, 0], [(0, 1), (0, 2), (0, 3)])
    single = G.Graph.make("b", [0], [])
    # delete 3 edges + 3 nodes
    assert ged_exact(star, single).cost == 6


def test_matches_bruteforce_on_random_pairs():
    for trial in range(150):
        g1, g2 = rand_pair(trial, 3, 5)
        assert ged_exact(g1, g2).cost == ged_bruteforce(g1, g2), (g1, g2)


def test_symmetry():
    for trial in range(60):
        g1, g2 = rand_pair(trial)
        assert ged_exact(g1, g2).cost == ged_exact(g2, g1).cost


def test_permuted_graph_distance_zero():
    rng = G.SplitMix64(77)
    for trial in range(30):
        g = G.generate_er(3 + trial % 5, 0.5, 3, seed=500 + trial, gid="g")
        pi = list(range(g.n))
        rng.shuffle(pi)
        assert ged_exact(g, permute(g, pi)).cost == 0


def test_perturbation_upper_bound():
    for trial in range(40):
        g = G.generate_er(4 + trial % 4, 0.4, 3, seed=trial, gid="g")
        k = 1 + trial % 3
        h, applied = G.perturb_trace(g, k, seed=trial * 13 + 1, alphabet_size=3)
        assert ged_exact(g, h).cost <= len(applied)


def test_edit_path_witness_replays_to_target():
    for trial in range(60):
        g1, g2 = rand_pair(trial)
        res = ged_exact(g1, g2)
        assert len(edit_path(g1, g2, res)[0]) == res.cost
        replayed = apply_edit_path(g1, g2, res)
        assert ged_bruteforce(replayed, g2) == 0


def test_lower_bound_admissible():
    # the bound the search starts from (see the core module docstring):
    # label-multiset distance plus edge-count gap never exceeds the GED
    for trial in range(80):
        g1, g2 = rand_pair(trial)
        overlap = sum((Counter(g1.labels) & Counter(g2.labels)).values())
        bound = max(g1.n, g2.n) - overlap + abs(g1.num_edges - g2.num_edges)
        assert bound <= ged_exact(g1, g2).cost


def test_budget_exceeded_raises_with_upper_bound():
    g1 = G.generate_er(8, 0.5, 1, seed=1, gid="a")
    g2 = G.generate_er(8, 0.5, 1, seed=2, gid="b")
    with pytest.raises(GedBudgetExceeded) as exc:
        ged_exact(g1, g2, budget=3)
    assert exc.value.expansions <= 3
    assert exc.value.best_cost >= ged_exact(g1, g2).cost


def test_bruteforce_node_cap():
    g = G.generate_er(7, 0.5, 2, seed=0, gid="g")
    with pytest.raises(ValueError):
        ged_bruteforce(g, g)


def test_invalid_graph_rejected():
    bad = G.Graph("bad", (0, 1), ((1, 0),))
    good = G.Graph.make("ok", [0], [])
    with pytest.raises(ValueError):
        ged_exact(bad, good)


def test_nged_and_similarity():
    assert nged(2, 5, 7) == 2 / 6
    assert similarity(0.0) == 1.0
    assert math.isclose(similarity(nged(2, 6, 6)), 0.7165313105737893, rel_tol=0, abs_tol=1e-15)
    with pytest.raises(ValueError):
        nged(1, 0, 3)
    with pytest.raises(ValueError):
        similarity(-0.1)


@pytest.fixture(params=["python", "c"])
def kernel(request):
    return _astar_py if request.param == "python" else request.getfixturevalue("c_kernel")


def kernel_args(g1, g2, budget=5_000_000, alphabet_size=None):
    if alphabet_size is None:
        alphabet_size = core._alphabet_size(g1, g2)
    return (
        g1.n, list(g1.labels), g1.adjacency_masks(),
        g2.n, list(g2.labels), g2.adjacency_masks(),
        alphabet_size, budget,
    )


@st.composite
def small_graphs(draw, max_n=6, alphabet=3, min_n=1):
    n = draw(st.integers(min_n, max_n))
    labels = draw(st.lists(st.integers(0, alphabet - 1), min_size=n, max_size=n))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pool if draw(st.booleans())]
    return G.Graph.make("h", labels, edges)


def test_kernel_backends_agree(c_kernel):
    for trial in range(60):
        g1, g2 = rand_pair(trial, 3, 7)
        args = kernel_args(g1, g2, alphabet_size=3)
        assert c_kernel.solve(*args) == _astar_py.solve(*args)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_graphs(), small_graphs())
@example(G.Graph.make("a", [0], []), G.Graph.make("b", [1], []))
@example(G.Graph.make("a", [2], []), G.Graph.make("b", [0, 2, 1], [(0, 1), (1, 2)]))
@example(G.Graph.make("a", [0, 0, 1, 2], [(0, 1), (2, 3)]), G.Graph.make("b", [0], []))
def test_kernel_backends_agree_on_random_graphs(c_kernel, g1, g2):
    args = kernel_args(g1, g2)
    result = c_kernel.solve(*args)
    assert result == _astar_py.solve(*args)
    assert result[0] == ged_bruteforce(g1, g2)


def test_kernel_backends_agree_when_budget_runs_out(c_kernel):
    g1 = G.generate_er(8, 0.5, 1, seed=1, gid="a")
    g2 = G.generate_er(8, 0.5, 1, seed=2, gid="b")
    args = kernel_args(g1, g2, budget=3)
    cost, assign, expansions, optimal = c_kernel.solve(*args)
    assert (cost, assign, expansions, optimal) == _astar_py.solve(*args)
    assert (expansions, optimal) == (3, False)
    exhausted_with_bound = 0
    for trial in range(20):
        g1, g2 = rand_pair(trial, 5, 7)
        for budget in (0, 1, 2, 5, 20):
            args = kernel_args(g1, g2, budget=budget)
            result = c_kernel.solve(*args)
            assert result == _astar_py.solve(*args), (trial, budget)
            if not result[3]:
                assert result[2] == budget
                exhausted_with_bound += result[0] is not None
    assert exhausted_with_bound > 0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_graphs(), small_graphs(), st.sampled_from([0, 1, 2, 5]))
def test_every_budget_drop_carries_a_bound(c_kernel, g1, g2, budget):
    # the greedy starting assignment is held from the first pop on, so a
    # search cut short returns a complete assignment and its cost
    args = kernel_args(g1, g2, budget=budget)
    result = c_kernel.solve(*args)
    assert result == _astar_py.solve(*args)
    cost, assign, expansions, optimal = result
    assert type(cost) is int and cost >= ged_bruteforce(g1, g2)
    assert_assignment_in_g1_ids(g1, g2, assign)
    assert core._edit_count(g1, g2, assign) == cost
    if not optimal:
        assert expansions == budget


def test_a_greedy_cost_at_the_root_bound_is_proven_without_expansions(kernel, monkeypatch):
    # the greedy assignment of a graph onto a renumbered copy of itself costs
    # 0, which is the root bound, so even a budget of 0 proves it optimal
    monkeypatch.setattr(core, "_kernel", kernel)
    g = G.generate_er(8, 0.5, 3, seed=4, gid="g")
    order = [3, 7, 0, 5, 1, 6, 2, 4]
    pos = {u: k for k, u in enumerate(order)}
    h = G.Graph.make("h", [g.labels[u] for u in order],
                     [(min(pos[u], pos[w]), max(pos[u], pos[w])) for u, w in g.edges])
    res = ged_exact(g, h, budget=0)
    assert (res.cost, res.expansions) == (0, 0)
    assert apply_edit_path(g, h, res) == h


# Pairs of 7 and 8 nodes, above brute force's reach: (n1, n2, seed of g1,
# seed of g2) for generate_er(n, 0.4, 3 labels). networkx takes 0.1-0.7 s a
# pair on them.
NETWORKX_PAIRS = [(8, 7, 501, 901), (8, 8, 503, 903), (7, 7, 504, 904),
                  (8, 7, 505, 905), (7, 8, 506, 906), (7, 8, 510, 910)]


def test_costs_equal_networkx_on_7_and_8_node_pairs():
    nx = pytest.importorskip("networkx")

    def to_nx(g):
        h = nx.Graph()
        h.add_nodes_from((u, {"label": lab}) for u, lab in enumerate(g.labels))
        h.add_edges_from(g.edges)
        return h

    def same_label(a, b):
        return a["label"] == b["label"]

    for n1, n2, seed1, seed2 in NETWORKX_PAIRS:
        g1 = G.generate_er(n1, 0.4, 3, seed1, "a")
        g2 = G.generate_er(n2, 0.4, 3, seed2, "b")
        # edges carry no label, so any edge matches any edge
        reference = nx.graph_edit_distance(to_nx(g1), to_nx(g2), node_match=same_label)
        args = kernel_args(g1, g2)
        assert ged_exact(g1, g2).cost == _astar_py.solve(*args)[0] == reference, (seed1, seed2)


def is_swapped(g1, g2):
    """Do the kernels search from g2? They start from the smaller (n, e)."""
    return (g2.n, g2.num_edges) < (g1.n, g1.num_edges)


def assert_assignment_in_g1_ids(g1, g2, assign):
    assert len(assign) == g1.n
    images = [v for v in assign if v != g2.n]
    assert all(0 <= v < g2.n for v in images)
    assert len(set(images)) == len(images), assign


@st.composite
def oriented_pairs(draw):
    """Pairs of up to 8 nodes with n1 > n2, with n1 = n2 and e1 > e2, or with
    n1 < n2: the first two are searched from g2, the last from g1."""
    kind = draw(st.sampled_from(("n1>n2", "e1>e2", "n1<n2")))
    if kind == "e1>e2":
        n = draw(st.integers(2, 8))
        a, b = draw(small_graphs(n, min_n=n)), draw(small_graphs(n, min_n=n))
        if a.num_edges == b.num_edges:
            # move one edge's worth of difference onto a
            if b.edges:
                b = G.Graph.make(b.id, b.labels, b.edges[1:])
            else:
                a = G.Graph.make(a.id, a.labels, [(0, 1)])
        return (a, b) if a.num_edges > b.num_edges else (b, a)
    small_n = draw(st.integers(1, 7))
    small = draw(small_graphs(small_n, min_n=small_n))
    large = draw(small_graphs(8, min_n=small_n + 1))
    return (large, small) if kind == "n1>n2" else (small, large)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(oriented_pairs())
@example((G.Graph.make("a", [0, 1], [(0, 1)]), G.Graph.make("b", [1, 0], [])))
@example((G.Graph.make("a", [0, 0, 1], [(0, 1), (1, 2)]), G.Graph.make("b", [2], [])))
def test_search_from_either_side_returns_g1_ids(c_kernel, pair):
    g1, g2 = pair
    args = kernel_args(g1, g2)
    result = c_kernel.solve(*args)
    assert result == _astar_py.solve(*args)
    cost, assign, expansions, optimal = result
    assert optimal
    assert_assignment_in_g1_ids(g1, g2, assign)
    res = GedResult(cost, assign, expansions)
    assert len(edit_path(g1, g2, res)[0]) == cost
    assert apply_edit_path(g1, g2, res) == g2
    if max(g1.n, g2.n) <= core.BRUTEFORCE_MAX_N:
        assert cost == ged_bruteforce(g1, g2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(oriented_pairs())
def test_either_argument_order_runs_the_same_search(pair):
    # the kernels search from the smaller (n, e) whichever argument it is
    g1, g2 = pair
    forward, backward = ged_exact(g1, g2), ged_exact(g2, g1)
    assert forward.cost == backward.cost
    assert forward.expansions == backward.expansions


def test_connectivity_order(kernel):
    # degrees 1, 3, 2, 3, 1: node 1 leads (degree 3, lower id than 3); 3 and
    # then 2 have the most edges into the placed nodes; 0 and 4 tie on one
    # edge and degree 1, so the lower id comes first
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]
    g = G.Graph.make("g", [0, 1, 2, 0, 1], edges)
    assert _astar_py.connectivity_order(g.adjacency_masks()) == [1, 3, 2, 0, 4]
    # both kernels search g from this order: a copy of g with its nodes
    # renumbered that way runs the same search from the identity order
    order = [1, 3, 2, 0, 4]
    pos = {u: k for k, u in enumerate(order)}
    h = G.Graph.make("h", [g.labels[u] for u in order],
                     [(min(pos[u], pos[w]), max(pos[u], pos[w])) for u, w in edges])
    assert _astar_py.connectivity_order(h.adjacency_masks()) == [0, 1, 2, 3, 4]
    other = G.Graph.make("o", [1, 0, 2, 0, 1, 1], [(0, 1), (1, 2), (3, 4), (4, 5)])
    assert kernel.solve(*kernel_args(g, other))[2] == kernel.solve(*kernel_args(h, other))[2]


def test_partial_results_on_swapped_pairs_are_in_g1_ids(c_kernel):
    swapped = with_bound = 0
    for trial in range(30):
        for g1, g2 in (rand_pair(trial, 5, 7), rand_pair(trial, 5, 7)[::-1]):
            if not is_swapped(g1, g2):
                continue
            swapped += 1
            for budget in (0, 1, 2, 5, 20):
                args = kernel_args(g1, g2, budget=budget)
                result = c_kernel.solve(*args)
                assert result == _astar_py.solve(*args), (trial, budget)
                cost, assign, _, optimal = result
                if optimal:
                    continue
                with_bound += 1
                assert_assignment_in_g1_ids(g1, g2, assign)
                assert len(edit_path(g1, g2, GedResult(cost, assign, 0))[0]) == cost
    assert swapped > 10 and with_bound > 0


@pytest.mark.parametrize(
    "labels1, labels2, alphabet_size",
    [([0, -1], [0], 2), ([0, 1], [2], 2), ([0, 1], [0], 0)],
)
def test_kernel_rejects_labels_outside_alphabet(kernel, labels1, labels2, alphabet_size):
    args = (len(labels1), labels1, [0] * len(labels1), len(labels2), labels2,
            [0] * len(labels2), alphabet_size, 100)
    with pytest.raises(ValueError, match="label"):
        kernel.solve(*args)


def test_kernel_rejects_a_negative_alphabet(kernel):
    with pytest.raises(ValueError, match=r"^alphabet_size must be >= 0, got -1$"):
        kernel.solve(0, [], [], 0, [], [], -1, 100)


@pytest.mark.parametrize(
    "n1, n2, alphabet_size, message",
    [
        (-1, 0, 0, "graphs must have 0..64 nodes, got -1 and 0"),
        (0, -1, 0, "graphs must have 0..64 nodes, got 0 and -1"),
        (2**31, 0, 0, "graphs must have 0..64 nodes, got 2147483648 and 0"),
        (0, 0, 129, "alphabet_size must be at most 128, got 129"),
        (0, 0, 2**31, "alphabet_size must be at most 128, got 2147483648"),
        (0, 0, 2**64, "alphabet_size must be at most 128, got 18446744073709551616"),
        (0, 0, -2**64, "alphabet_size must be >= 0, got -18446744073709551616"),
    ],
)
def test_kernels_refuse_an_argument_out_of_range_alike(kernel, n1, n2, alphabet_size, message):
    # the compiled kernel raised OverflowError beyond a C int, where the
    # pure one answered; empty graphs keep the pure one from allocating
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        kernel.solve(n1, [], [], n2, [], [], alphabet_size, 100)


def test_kernels_take_an_alphabet_of_up_to_128_labels(kernel):
    # ged_exact numbers a sparse alphabet densely: n1 + n2 <= 128 labels
    assert kernel.solve(0, [], [], 0, [], [], 128, 100) == (0, (), 0, True)


@pytest.mark.parametrize(
    "adj1, adj2, message",
    [
        ([2, 0], [2, 1], "not symmetric"),  # a one-way edge in g1
        ([2, 1], [0, 0, 2], "not symmetric"),  # and in g2
        ([6, 1], [2, 1], "0..1"),  # bit 2 set on a 2-node graph
        ([2, 1], [2, 1 | 1 << 63], "0..1"),
        ([3, 1], [2, 1], "0..1"),  # a self-loop
        ([-1, 1], [2, 1], "0..1"),
        ([2, 1], [2**64, 1], "0..1"),
    ],
)
def test_kernel_rejects_malformed_neighbour_masks(kernel, adj1, adj2, message):
    args = (2, [0, 1], adj1, len(adj2), [0] * len(adj2), adj2, 2, 100)
    with pytest.raises(ValueError, match=f"neighbour mask.*{message}"):
        kernel.solve(*args)


def test_kernel_rejects_more_than_64_nodes(kernel):
    big = G.generate_er(65, 0.05, 2, seed=3, gid="big")
    small = G.generate_er(3, 0.5, 2, seed=4, gid="small")
    for g1, g2 in ((big, small), (small, big)):
        with pytest.raises(ValueError, match="64"):
            kernel.solve(*kernel_args(g1, g2))


def test_kernel_takes_its_arguments_by_position_only(kernel):
    # ged_exact and perfbench pass all eight by position; both kernels
    # refuse a keyword, or a missing argument, alike
    args = kernel_args(*rand_pair(1))
    with pytest.raises(TypeError):
        kernel.solve(*args[:7], budget=100)
    with pytest.raises(TypeError):
        kernel.solve(*args[:7])
    assert kernel.solve(*args[:7], 100) == _astar_py.solve(*args)
    assert str(inspect.signature(kernel.solve)) == (
        "(n1, labels1, adj1, n2, labels2, adj2, alphabet_size, budget, /)"
    )


def test_ged_exact_rejects_bad_input_on_both_kernels(kernel, monkeypatch):
    monkeypatch.setattr(core, "_kernel", kernel)
    ok = G.Graph.make("ok", [0, 1], [(0, 1)])
    with pytest.raises(ValueError, match="non-negative integer"):
        ged_exact(G.Graph("neg", (0, -1), ((0, 1),)), ok)
    with pytest.raises(ValueError, match="64"):
        ged_exact(G.generate_er(65, 0.05, 2, seed=3, gid="big"), ok)
    assert ged_exact(ok, ok).cost == 0


@pytest.mark.parametrize("budget", [-1, 2**63, 10**23, True, 5.0, "5"])
def test_ged_exact_rejects_a_budget_outside_0_to_2_63_on_both_kernels(kernel, monkeypatch, budget):
    # the C kernel took the budget as a long long and raised OverflowError
    # above 2**63 - 1, where the pure-Python kernel searched on
    monkeypatch.setattr(core, "_kernel", kernel)
    a = G.Graph.make("a", [0, 1, 0], [(0, 1), (1, 2)])
    b = G.Graph.make("b", [1, 1], [(0, 1)])
    with pytest.raises(ValueError, match=r"budget must be an integer in 0\.\.9223372036854775807"):
        ged_exact(a, b, budget)
    assert ged_exact(a, b, 2**63 - 1).cost == 3


@pytest.mark.parametrize(
    "bad, message",
    [
        (G.Graph("x", (0, 1), (("a", 1),)), "not both integers"),
        (G.Graph("x", (0, 1), ((0, True),)), "not both integers"),
        (G.Graph("y", (0, True), ((0, 1),)), "non-negative integer"),
        (G.Graph("y", (False,), ()), "non-negative integer"),
    ],
)
def test_ged_exact_rejects_bool_and_non_int_labels_and_endpoints(kernel, monkeypatch, bad, message):
    # a bool label was searched as 0 or 1, and a string endpoint raised
    # TypeError from the comparisons
    monkeypatch.setattr(core, "_kernel", kernel)
    one = G.Graph.make("one", [0], [])
    with pytest.raises(ValueError, match=message):
        ged_exact(bad, one)
    with pytest.raises(ValueError, match=message):
        ged_exact(one, bad)


def test_expansions_reported():
    g1, g2 = rand_pair(5)
    res = ged_exact(g1, g2)
    assert res.expansions >= 1


def test_ged_command_prints_the_cost_path_and_mapping(tmp_path, capsys):
    g1, g2 = rand_pair(9)
    files = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, g in zip(files, (g1, g2)):
        path.write_text(json.dumps(_graph_doc(g)))
    assert cli.main(["ged", "--a", str(files[0]), "--b", str(files[1])]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    res = ged_exact(g1, g2)
    path, mapping = edit_path(g1, g2, res)
    assert list(doc) == ["cost", "path", "mapping"] and doc["cost"] == res.cost
    assert doc["path"] == [{"kind": op.kind, "operands": list(op.operands)} for op in path]
    assert doc["mapping"] == [list(p) for p in mapping]


def test_result_is_a_plain_value_and_labeling_builds_no_path(monkeypatch):
    assert GedResult._fields == ("cost", "assignment", "expansions")
    built = []

    def counting_edit_path(*args):
        built.append(args)
        return real_edit_path(*args)

    real_edit_path = core.edit_path
    monkeypatch.setattr(core, "edit_path", counting_edit_path)
    for trial in range(40):
        g1, g2 = rand_pair(trial)
        res = ged_exact(g1, g2)
        cost, assignment, expansions = res
        assert type(cost) is int and type(assignment) is tuple and type(expansions) is int
    assert not built  # labeling reads only the cost
    for name in GedResult._fields:
        with pytest.raises(AttributeError):
            setattr(res, name, None)


@pytest.mark.parametrize("error", [1, -1])
def test_edit_path_refuses_a_cost_its_assignment_does_not_have(error):
    for trial in range(5):
        g1, g2 = rand_pair(trial)
        cost, assign, expansions = ged_exact(g1, g2)
        with pytest.raises(AssertionError, match="path length"):
            edit_path(g1, g2, GedResult(cost + error, assign, expansions))


@pytest.fixture(params=["python", "c"])
def checker(request):
    """ged_exact's recount of a result's edits, on either backend."""
    if request.param == "python":
        return core._edit_count
    return request.getfixturevalue("c_kernel").edit_count


def planted(monkeypatch, plant):
    """Make ged_exact's kernel return plant(cost, assignment, n2) in place of
    the search's cost and assignment."""
    real = core._kernel

    def solve(*args):
        cost, assign, expansions, optimal = real.solve(*args)
        return *plant(cost, assign, args[3]), expansions, optimal

    monkeypatch.setattr(core, "_kernel", type("Planted", (), {"solve": staticmethod(solve)}))


@pytest.mark.parametrize("error", [1, -1])
def test_ged_exact_refuses_a_cost_its_assignment_does_not_have(monkeypatch, checker, error):
    monkeypatch.setattr(core, "_recount", checker)
    planted(monkeypatch, lambda cost, assign, n2: (cost + error, assign))
    for trial in range(5):
        with pytest.raises(AssertionError, match="edit count"):
            ged_exact(*rand_pair(trial))


# Assignments that are no map of g1's nodes into 0..n2, made from a valid one
MALFORMED_ASSIGNMENTS = {
    "short": lambda assign, n2: assign[:-1],
    "long": lambda assign, n2: assign + (0,),
    "past-deleted": lambda assign, n2: (n2 + 1, *assign[1:]),
    "negative": lambda assign, n2: (-1, *assign[1:]),
    "beyond-64-bits": lambda assign, n2: (2**70, *assign[1:]),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_ASSIGNMENTS))
def test_both_checkers_refuse_a_malformed_assignment_alike(monkeypatch, c_kernel, name):
    malform = MALFORMED_ASSIGNMENTS[name]
    g1, g2 = rand_pair(3)
    bad = malform(ged_exact(g1, g2).assignment, g2.n)
    planted(monkeypatch, lambda cost, assign, n2: (cost, malform(assign, n2)))
    raised = []
    for checker in (core._edit_count, c_kernel.edit_count):
        with pytest.raises(ValueError, match=r"is not a map of g1's \d+ nodes into 0\.\.\d+") as direct:
            checker(g1, g2, bad)
        monkeypatch.setattr(core, "_recount", checker)
        with pytest.raises(AssertionError) as through:
            ged_exact(g1, g2)
        raised.append((str(direct.value), str(through.value)))
    assert raised[0] == raised[1]
    assert raised[0][1] == f"the kernel's {raised[0][0]}"


@pytest.mark.parametrize(
    "labels, masks, exception, message",
    [
        ((0, 1), (2,), ValueError, "at most 64 labels and as many neighbour masks"),
        ((0,) * 65, (0,) * 65, ValueError, "at most 64 labels"),
        ((0, 1), (2, 2**64), OverflowError, None),
        ((0, 1), (2, -1), OverflowError, None),
        ((0, 1), 5, TypeError, "masks must be a sequence"),
        (None, (0,), TypeError, "labels must be a sequence"),
    ],
    ids=["one-mask-short", "65-nodes", "mask-past-64-bits", "negative-mask",
         "masks-not-a-sequence", "labels-not-a-sequence"],
)
def test_compiled_recount_refuses_graphs_it_cannot_read(c_kernel, labels, masks, exception, message):
    bad = SimpleNamespace(labels=labels, masks=masks)
    good = G.Graph.make("g", [0, 1], [(0, 1)])
    for g1, g2 in ((bad, good), (good, bad)):
        with pytest.raises(exception, match=message):
            c_kernel.edit_count(g1, g2, (0, 1))
    with pytest.raises(TypeError, match="3 arguments"):
        c_kernel.edit_count(good, good)
    with pytest.raises(AttributeError, match="masks"):
        c_kernel.edit_count(good, SimpleNamespace(labels=(0, 1)), (0, 1))


# Labels far apart, one beyond 64 bits: ged_exact numbers them densely for
# the search, but checks the result on the graphs as they are.
SPARSE_LABELS = (7, 10**12, 2**40, 2**70)


@st.composite
def counted_pairs(draw):
    """Two graphs of 0 to 6 nodes, so of unequal sizes and with an empty g1,
    on the labels 0..2 or on SPARSE_LABELS."""
    g1, g2 = draw(small_graphs(min_n=0)), draw(small_graphs(min_n=0))
    if draw(st.booleans()):
        g1, g2 = (
            G.Graph(g.id, tuple(SPARSE_LABELS[lab] for lab in g.labels), g.edges)
            for g in (g1, g2)
        )
    return g1, g2


def random_injection(g1, g2, rnd):
    """An injective assignment that deletes some of g1's nodes."""
    targets = list(range(g2.n))
    rnd.shuffle(targets)
    return tuple(
        targets.pop() if targets and rnd.random() < 0.7 else g2.n for _ in range(g1.n)
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(counted_pairs(), st.randoms(use_true_random=False))
@example((G.Graph("empty", (), ()), G.Graph.make("b", [0, 1], [(0, 1)])), random.Random(0))
def test_compiled_recount_equals_edit_count(c_kernel, pair, rnd):
    g1, g2 = pair
    # an injection with deletions, and any map into 0..n2, which both
    # checkers count alike too
    assignments = [
        random_injection(g1, g2, rnd),
        tuple(rnd.randrange(g2.n + 1) for _ in range(g1.n)),
    ]
    if g1.n and g2.n:  # ged_exact takes no empty graph
        assignments.append(ged_exact(g1, g2).assignment)
    for assign in assignments:
        assert c_kernel.edit_count(g1, g2, assign) == core._edit_count(g1, g2, assign)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_graphs())
def test_kernels_insert_all_of_g2_when_g1_is_empty(c_kernel, g2):
    empty = G.Graph("empty", (), ())
    args = kernel_args(empty, g2, alphabet_size=3)
    result = c_kernel.solve(*args)
    assert result == _astar_py.solve(*args)
    assert result == (ged_bruteforce(empty, g2), (), 0, True)


def test_kernel_on_empty_g1(kernel):
    assert kernel.solve(0, [], [], 2, [0, 0], [2, 1], 1, 100) == (3, (), 0, True)
    assert kernel.solve(0, [], [], 0, [], [], 1, 0) == (0, (), 0, True)


def test_invalid_graph_raises_on_every_call():
    bad = G.Graph("bad", (0, 1), ((1, 0),))
    good = G.Graph.make("ok", [0], [])
    for _ in range(3):
        for g1, g2 in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match="smaller-id-first"):
                ged_exact(g1, g2)


def test_sparse_labels_give_the_dense_result():
    # labels far apart are renumbered before the search; the result is the
    # one of the same graphs on a dense alphabet, with the original labels
    g1 = G.Graph.make("a", [10**12, 7, 2**40], [(0, 1), (1, 2)])
    g2 = G.Graph.make("b", [7, 10**12], [(0, 1)])
    d1 = G.Graph.make("a", [1, 0, 2], [(0, 1), (1, 2)])
    d2 = G.Graph.make("b", [0, 1], [(0, 1)])
    res, dense = ged_exact(g1, g2), ged_exact(d1, d2)
    assert res == dense
    assert res.cost == ged_bruteforce(g1, g2)
    assert apply_edit_path(g1, g2, res) == g2


def test_lower_bound_counts_sparse_labels():
    # labels are counted per value present, not in lists sized by the largest
    g1 = G.Graph.make("a", [10**12, 7, 2**40], [(0, 1), (1, 2)])
    g2 = G.Graph.make("b", [7, 10**12], [(0, 1)])
    d1 = G.Graph.make("a", [1, 0, 2], [(0, 1), (1, 2)])
    d2 = G.Graph.make("b", [0, 1], [(0, 1)])
    assert ged_exact(g1, g2).cost == ged_exact(d1, d2).cost == ged_bruteforce(d1, d2)
    far, zero = G.Graph.make("a", [2**40], []), G.Graph.make("b", [0], [])
    assert ged_exact(far, zero).cost == 1


def test_ged_exact_calls_the_kernel_once_per_call(monkeypatch):
    # perfbench's tracer counts kernel calls by replacing ``core._kernel`` and
    # labeling calls by replacing ``synth.ged_exact``
    from gedraft import ged, synth

    assert synth.ged_exact is ged.ged_exact is core.ged_exact
    real = core._kernel
    calls = []

    def solve(*args):
        calls.append(args)
        return real.solve(*args)

    monkeypatch.setattr(core, "_kernel", type("Counting", (), {"solve": staticmethod(solve)}))
    g1, g2 = rand_pair(4)
    for k in range(1, 4):
        ged_exact(g1, g2)
        assert len(calls) == k

    labeled = []

    def counting_ged_exact(*args):
        labeled.append(args)
        return ged_exact(*args)

    monkeypatch.setattr(synth, "ged_exact", counting_ged_exact)
    ds, report = synth.build_dataset(n_graphs=6, n_min=3, n_max=4, p=0.4, alphabet_size=2, seed=1)
    assert len(labeled) == len(calls) - 3 == report.num_pairs + report.dropped_budget


def test_gen_report_counts_expansions_of_labeled_and_dropped_pairs(monkeypatch):
    from gedraft import synth

    seen = []

    def recording_ged_exact(g1, g2, budget):
        try:
            res = ged_exact(g1, g2, budget)
        except GedBudgetExceeded as exc:
            seen.append(exc.expansions)
            raise
        seen.append(res.expansions)
        return res

    monkeypatch.setattr(synth, "ged_exact", recording_ged_exact)
    ds, report = synth.build_dataset(
        n_graphs=10, n_min=5, n_max=7, p=0.5, alphabet_size=2, seed=3, budget=40
    )
    assert report.dropped_budget > 0 and report.num_pairs > 0
    assert len(seen) == report.num_pairs + report.dropped_budget
    assert report.expansions == sum(seen)
    monkeypatch.undo()
    _, again = synth.build_dataset(
        n_graphs=10, n_min=5, n_max=7, p=0.5, alphabet_size=2, seed=3, budget=40
    )
    assert again == report


def test_gen_report_of_a_run_with_a_labeling_run_nested_in_it(monkeypatch):
    # a second labeling run, started while a first one is labeling (as from
    # another thread), keeps its own count and leaves the first one's alone
    from gedraft import synth

    run = dict(n_graphs=8, n_min=4, n_max=6, p=0.4, alphabet_size=3, seed=5)
    plain_ds, plain = synth.build_dataset(**run)
    nested = []

    def labeling_elsewhere(*args):
        if not nested:
            nested.append(None)  # the nested run's own calls label plainly
            nested[0] = synth.build_dataset(**{**run, "seed": 6})
        return ged_exact(*args)

    monkeypatch.setattr(synth, "ged_exact", labeling_elsewhere)
    ds, report = synth.build_dataset(**run)
    assert nested and nested[0][1].expansions > 0
    assert report == plain and ds.pairs == plain_ds.pairs
    monkeypatch.undo()
    assert synth.build_dataset(**{**run, "seed": 6})[1] == nested[0][1]


def test_build_dataset_goes_once_through_each_seam_per_pair(kernel, monkeypatch):
    # perfbench's tracer counts labeled pairs at synth._label_pair, searches
    # at synth.ged_exact and kernel calls at core._kernel.solve; each pair,
    # labeled or dropped over budget, goes once through each, on either kernel
    from gedraft import synth

    run = dict(n_graphs=10, n_min=5, n_max=7, p=0.5, alphabet_size=2, seed=3, budget=40)
    plain, _ = synth.build_dataset(**run)
    calls = Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(core, "_kernel", SimpleNamespace(solve=counting("solve", kernel.solve)))
    monkeypatch.setattr(synth, "ged_exact", counting("ged_exact", synth.ged_exact))
    monkeypatch.setattr(synth, "_label_pair", counting("_label_pair", synth._label_pair))
    ds, report = synth.build_dataset(**run)
    assert report.dropped_budget > 0 and report.num_pairs == len(ds.pairs) > 0
    seen = report.num_pairs + report.dropped_budget
    assert calls == {"_label_pair": seen, "ged_exact": seen, "solve": seen}
    assert ds.pairs == plain.pairs


def test_labels_are_nged_and_similarity_bit_for_bit(monkeypatch):
    # _label_pair reads (nged, sim) from a table keyed on (ged, n1 + n2) that
    # outlives a build; each label is still the float nged() and similarity()
    # give, whether the table was empty, warm from earlier builds, or full
    from gedraft import synth

    def check(ds):
        for p in ds.pairs:
            n1, n2 = ds.graph(p.i).n, ds.graph(p.j).n
            assert float.hex(p.nged) == float.hex(nged(p.ged, n1, n2))
            assert float.hex(p.sim) == float.hex(similarity(p.nged))
            if (p.ged, n1 + n2) in synth._labels:  # equal labels share their floats
                assert synth._labels[p.ged, n1 + n2][0] is p.nged

    run = dict(n_graphs=40, n_min=3, n_max=6, p=0.4, alphabet_size=3)
    monkeypatch.setattr(synth, "_labels", {})
    for seed in (0, 1, 2):
        check(synth.build_dataset(**run, seed=seed)[0])
    assert 0 < len(synth._labels) <= synth._LABELS_MAX
    monkeypatch.setattr(synth, "_labels", {})
    monkeypatch.setattr(synth, "_LABELS_MAX", 3)
    check(synth.build_dataset(**run, seed=3)[0])
    assert len(synth._labels) == 3


def reference_build_path(g1, g2, assign):
    """The edit path built with dicts and sets, as ``edit_path`` once did."""
    n2 = g2.n
    image = {u: v for u, v in enumerate(assign) if v != n2}
    mapping = sorted(image.items())
    e2_images = {
        (min(image[u], image[w]), max(image[u], image[w]))
        for u, w in g1.edges
        if u in image and w in image
    }
    e2 = set(g2.edges)
    path = []
    for u, w in g1.edges:
        if not (u in image and w in image
                and (min(image[u], image[w]), max(image[u], image[w])) in e2):
            path.append(core.EditOp("edge-delete", (u, w)))
    path += [core.EditOp("node-delete", (u,)) for u in range(g1.n) if u not in image]
    path += [
        core.EditOp("node-relabel", (u, g2.labels[v]))
        for u, v in mapping
        if g1.labels[u] != g2.labels[v]
    ]
    used = set(image.values())
    path += [core.EditOp("node-insert", (v, g2.labels[v])) for v in range(n2) if v not in used]
    path += [core.EditOp("edge-insert", e) for e in g2.edges if e not in e2_images]
    return tuple(path), tuple(mapping)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_graphs(), small_graphs(), st.randoms(use_true_random=False))
def test_build_path_matches_reference(g1, g2, rnd):
    # the optimal assignment and, to reach every branch, an arbitrary one
    optimal = core._kernel.solve(*kernel_args(g1, g2))[1]
    for assign in (optimal, random_injection(g1, g2, rnd)):
        result = GedResult(core._edit_count(g1, g2, assign), assign, 0)
        assert edit_path(g1, g2, result) == reference_build_path(g1, g2, assign)


# Pairs for ``gedraft ged``, as (g1, g2): a relabel; a node deletion, with
# its edges, which the search runs swapped, from g2, as (n2, e2) < (n1, e1);
# a node insertion with edge insertions; edge edits on both sides of a pair
# with n1 = n2 and e1 > e2, also run swapped; and two random pairs, one
# swapped, that take every kind of edit.
GED_COMMAND_PAIRS = {
    "relabel": (G.Graph.make("a", [0, 1], [(0, 1)]), G.Graph.make("b", [0, 2], [(0, 1)])),
    "delete": (G.Graph.make("a", [0, 1, 2], [(0, 1), (1, 2)]),
               G.Graph.make("b", [0, 1], [(0, 1)])),
    "insert": (G.Graph.make("a", [0, 1], [(0, 1)]),
               G.Graph.make("b", [2, 0, 1], [(0, 1), (1, 2), (0, 2)])),
    "edges": (G.Graph.make("a", [0, 0, 1, 1], [(0, 1), (1, 2), (2, 3), (0, 3)]),
              G.Graph.make("b", [1, 0, 1, 0], [(0, 2), (1, 3)])),
    "random": (G.generate_er(6, 0.4, 3, 31, "a"), G.generate_er(7, 0.5, 3, 32, "b")),
    "random-swapped": (G.generate_er(8, 0.5, 3, 33, "a"), G.generate_er(6, 0.4, 3, 34, "b")),
}
# sha256 of the command's stdout for each pair
GED_COMMAND_PINS = {
    "delete": "18d23361656fc55d85f0904b8f2dc52d64d673cce6deb65a093af59538a47eac",
    "edges": "0434431d74fd8a93cf43b54bbdcf721524466d52c23c96d60365768f53476de4",
    "insert": "3bc47d958e83ef2adf9044f93a70a9417170a66db1b2753fff20b056e429c18c",
    "random": "51df7c36d786578f0e50b3c02978e23aac642f4590bbbb57f3bb7801df7310bf",
    "random-swapped": "94a75c40860634402657bb52ae667f6ca2488bd0954834f5f9aeedb8883d3681",
    "relabel": "6f5f5cb0bbe4050732957e88a3d763c734a5946bb9a585c1a37e5c4af88d38d8",
}


@pytest.mark.parametrize("name", sorted(GED_COMMAND_PAIRS))
def test_ged_command_stdout_is_pinned_on_both_kernels(kernel, monkeypatch, tmp_path, capsys, name):
    monkeypatch.setattr(core, "_kernel", kernel)
    g1, g2 = GED_COMMAND_PAIRS[name]
    files = []
    for tag, g in (("a", g1), ("b", g2)):
        files.append(tmp_path / f"{tag}.json")
        files[-1].write_text(json.dumps(_graph_doc(g)))
    capsys.readouterr()
    assert cli.main(["ged", "--a", str(files[0]), "--b", str(files[1])]) == cli.EXIT_OK
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == GED_COMMAND_PINS[name]
