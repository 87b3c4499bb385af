import numpy as np
import pytest

from gedraft import resat
from gedraft.encoder import encode_graphs
from gedraft.ged import ged_exact
from gedraft.graphs import check_extraction, generate_er
from gedraft.model import ModelConfig, copy_params, init_params, params_equal
from gedraft.resat import (
    ResatReport,
    build_resat_dataset,
    probe_embeddings,
    resat_compare,
    resat_probe,
)

CFG = ModelConfig(alphabet_size=3, hidden=8, layers=2, readout="gca", fusion="diffatt", seed=0)


def some_graphs(count, n=6, seed0=100):
    return [generate_er(n, 0.5, 3, seed=seed0 + t, gid=f"g{t}") for t in range(count)]


def test_build_resat_dataset_basics():
    graphs = some_graphs(5)
    triples, skipped = build_resat_dataset(graphs, per_graph=3, seed=0)
    assert len(triples) + 3 * len(skipped) == 15
    for t in triples:
        assert check_extraction(t.base, t.extraction) == []
        assert t.remaining.n >= 1
    again, _ = build_resat_dataset(graphs, per_graph=3, seed=0)
    assert again == triples


def test_build_resat_dataset_zero_per_graph():
    triples, skipped = build_resat_dataset(some_graphs(3), per_graph=0, seed=0)
    assert triples == [] and skipped == []
    with pytest.raises(ValueError):
        build_resat_dataset(some_graphs(1), per_graph=-1, seed=0)


def test_small_graphs_skipped():
    graphs = [generate_er(3, 0.5, 3, seed=0, gid="tiny")] + some_graphs(2)
    triples, skipped = build_resat_dataset(graphs, per_graph=2, seed=0)
    assert "tiny" in skipped
    assert all(t.base.id != "tiny" for t in triples)


def test_optimal_mapping_invariant():
    # cost of editing the base graph into its induced subgraph equals
    # (nodes removed) + (edges removed), realized by the identity mapping
    graphs = some_graphs(8, seed0=300)
    triples, _ = build_resat_dataset(graphs, per_graph=3, seed=1)
    assert triples
    for t in triples:
        g, s = t.base, t.extraction.subgraph
        expected = (g.n - s.n) + (g.num_edges - s.num_edges)
        assert ged_exact(g, s).cost == expected


def test_probe_embeddings_shapes_and_detached():
    graphs = some_graphs(6)
    triples, _ = build_resat_dataset(graphs, per_graph=3, seed=2)
    params = init_params(CFG)
    emb = probe_embeddings(params, CFG, triples)
    n = len(triples)
    assert emb["fused"].shape == (n, CFG.fused_dim)
    assert emb["target"].shape == (n, (CFG.layers + 1) * CFG.hidden)
    assert emb["pre_attention"].shape == (n, CFG.fused_dim)
    abs_cfg = ModelConfig(**{**CFG.to_json(), "fusion": "abs"})
    emb2 = probe_embeddings(init_params(abs_cfg), abs_cfg, triples)
    assert "pre_attention" not in emb2


def test_resat_probe_needs_enough_triples():
    with pytest.raises(ValueError):
        resat_probe(np.zeros((5, 4)), np.zeros((5, 4)), seed=0)


def test_resat_probe_constant_target_converges(monkeypatch):
    monkeypatch.setattr(resat, "PROBE_LR", 0.02)
    rng = np.random.default_rng(0)
    inputs = rng.normal(size=(40, 6))
    targets = np.zeros((40, 4))
    mse = resat_probe(inputs, targets, seed=0, epochs=300)
    assert mse < 1e-3


def test_resat_probe_deterministic():
    rng = np.random.default_rng(1)
    inputs = rng.normal(size=(30, 5))
    targets = rng.normal(size=(30, 4)) * 0.1
    a = resat_probe(inputs, targets, seed=3, epochs=30)
    b = resat_probe(inputs, targets, seed=3, epochs=30)
    assert a == b


def test_resat_probe_true_pairing_beats_shuffled(monkeypatch):
    monkeypatch.setattr(resat, "PROBE_LR", 0.01)
    rng = np.random.default_rng(2)
    inputs = rng.normal(size=(60, 5))
    targets = inputs @ rng.normal(size=(5, 4)) + 0.01 * rng.normal(size=(60, 4))
    true_mse = np.mean([resat_probe(inputs, targets, s, epochs=200) for s in range(5)])
    shuffled = targets[rng.permutation(60)]
    shuf_mse = np.mean([resat_probe(inputs, shuffled, s, epochs=200) for s in range(5)])
    assert true_mse < shuf_mse


def test_resat_compare_report(tiny_dataset):
    test_ids = {p.i for p in tiny_dataset.split_pairs("test")}
    graphs = [g for g in tiny_dataset.graphs if g.id in test_ids]
    triples, _ = build_resat_dataset(graphs, per_graph=4, seed=0)
    cfg = ModelConfig(alphabet_size=3, hidden=8, layers=1, readout="mean", fusion="abs", seed=0)
    params = init_params(cfg)
    snapshot = copy_params(params)
    report = resat_compare({"abs": (params, cfg)}, tiny_dataset, triples, seeds=(0,), probe_epochs=20)
    assert isinstance(report, ResatReport)
    assert len(report.rows) == 1
    assert not report.rho_defined  # single variant: correlation undefined
    assert params_equal(params, snapshot)  # probing must not touch the model
    rendered = report.render()
    assert "abs" in rendered and "undefined" in rendered


def test_resat_compare_diffatt_has_before_row(tiny_dataset):
    test_ids = {p.i for p in tiny_dataset.split_pairs("test")}
    graphs = [g for g in tiny_dataset.graphs if g.id in test_ids]
    triples, _ = build_resat_dataset(graphs, per_graph=4, seed=0)
    cfg = ModelConfig(alphabet_size=3, hidden=8, layers=1, readout="mean", fusion="diffatt", seed=0)
    report = resat_compare(
        {"diffatt": (init_params(cfg), cfg)}, tiny_dataset, triples, seeds=(0,), probe_epochs=20
    )
    row = report.rows[0]
    assert "resat_mse_before" in row
    assert row["resat_mse"] >= 0 and row["resat_mse_before"] >= 0


def test_resat_compare_refuses_a_probe_that_mutates_parameters(tiny_dataset, monkeypatch):
    from gedraft import resat

    triples, _ = build_resat_dataset(tiny_dataset.graphs[:6], per_graph=3, seed=0)
    cfg = ModelConfig(alphabet_size=3, hidden=8, layers=1, readout="mean", fusion="abs", seed=0)
    params = init_params(cfg)
    embed = resat.probe_embeddings

    def mutating(params, cfg, triples):
        params["encoder.proj.b"].values[0] += 1.0
        return embed(params, cfg, triples)

    monkeypatch.setattr(resat, "probe_embeddings", mutating)
    with pytest.raises(RuntimeError, match="mutated parameters of variant 'abs'"):
        resat_compare({"abs": (params, cfg)}, tiny_dataset, triples, probe_epochs=1)


def test_resat_compare_rejects_empty():
    with pytest.raises(ValueError):
        resat_compare({}, None, [])


def test_probe_embeddings_builds_no_tape(monkeypatch):
    from gedraft import resat

    triples, _ = build_resat_dataset(some_graphs(6), per_graph=3, seed=2)
    params = init_params(CFG)
    outputs = []

    def recorded(*args):
        outputs.append(encode_graphs(*args))
        return outputs[-1]

    monkeypatch.setattr(resat, "encode_graphs", recorded)
    emb = resat.probe_embeddings(params, CFG, triples)
    assert outputs and not any(s.requires_grad or s._parents for s in outputs[0])
    assert all(t.grad is None for t in params.values())
    # the same run with the tape on gives the same bits
    outputs.clear()
    monkeypatch.setattr(resat, "frozen", lambda p: p)
    taped = resat.probe_embeddings(params, CFG, triples)
    assert all(s.requires_grad for s in outputs[0])
    assert emb.keys() == taped.keys()
    assert all(np.array_equal(emb[k], taped[k]) for k in emb)
