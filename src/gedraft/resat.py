"""Remaining-subgraph alignment probing.

For a base graph G, a random-walk induced subgraph S, and the remaining
graph R (G minus S's edges and the resulting isolated nodes), a frozen
trained encoder/fusion stack produces the fused embedding of (G, S) and
the multi-scale embedding of R. A fresh MLP is trained to map the former
to the latter; its best validation MSE measures how much structural-
difference information the fusion output retains. Lower is better.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, backward
from .encoder import distinct_graphs, encode_graphs, init_mlp, mlp
from .graphs import Graph, SubgraphExtraction, random_walk_subgraph, remaining_subgraph
from .metrics import evaluate, spearman_checked
from .model import ModelConfig, copy_params, frozen, fused_pair_embedding, params_equal
from .optim import Adam
from .rng import SplitMix64

MAX_ATTEMPTS = 20  # random-walk draws per triple before its base graph is skipped
# the alignment probe's mini-batch, Adam step size and hidden widths, as
# multiples of max(in_dim, out_dim)
PROBE_BATCH = 64
PROBE_LR = 0.001
PROBE_WIDTHS = (1, 2)


@dataclass(frozen=True)
class ResatTriple:
    base: Graph
    extraction: SubgraphExtraction
    remaining: Graph


def build_resat_dataset(graphs, per_graph: int, seed: int):
    """Returns (triples, skipped graph ids); deterministic given seed.

    A draw whose remaining graph is empty is resampled; a base graph that
    exhausts MAX_ATTEMPTS on any draw is skipped entirely.
    """
    if per_graph < 0:
        raise ValueError(f"need per_graph >= 0, got {per_graph}")
    rng = SplitMix64(seed)
    triples: list[ResatTriple] = []
    skipped: list[str] = []
    for g in graphs:
        if g.n < 4:
            skipped.append(g.id)
            continue
        own: list[ResatTriple] = []
        ok = True
        for _ in range(per_graph):
            for _attempt in range(MAX_ATTEMPTS):
                ex = random_walk_subgraph(g, rng.next_u64())
                rem = remaining_subgraph(g, ex)
                if rem is not None:
                    own.append(ResatTriple(g, ex, rem))
                    break
            else:
                ok = False
                break
        if ok:
            triples.extend(own)
        else:
            skipped.append(g.id)
    return triples, skipped


def probe_embeddings(params: dict, cfg: ModelConfig, triples):
    """Frozen-model embeddings for probing.

    Returns {"fused": (n, fused_dim), "target": (n, (K+1)*hidden)} and,
    for the diffatt variant, additionally "pre_attention": the ``none``
    fusion of the same per-scale encodings, the concat of the raw
    embedding pairs before attention rescaling. Each distinct graph is
    encoded once, in one batch; the model runs on frozen parameters, so no
    autodiff tape is built.
    """
    params = frozen(params)
    n = len(triples)
    graphs, rows = distinct_graphs([t.base for t in triples]
                                   + [t.extraction.subgraph for t in triples]
                                   + [t.remaining for t in triples])
    scales = encode_graphs(graphs, params, cfg)
    base, sub, rem = ([ad.index_rows(s, rows[k * n:(k + 1) * n]) for s in scales]
                      for k in range(3))
    out = {"fused": fused_pair_embedding(base, sub, params, cfg).values.copy(),
           "target": ad.concat(rem, axis=-1).values.copy()}
    if cfg.fusion == "diffatt":
        no_fusion = replace(cfg, fusion="none")
        out["pre_attention"] = fused_pair_embedding(base, sub, params, no_fusion).values.copy()
    return out


def resat_probe(inputs: np.ndarray, targets: np.ndarray, seed: int, epochs: int) -> float:
    """Best validation MSE of an alignment MLP trained on an 80/20 split.

    The probe has two relu hidden layers of width m * max(in_dim, out_dim)
    for each multiplier m of PROBE_WIDTHS; the best validation MSE over the
    grid is returned. Inputs and targets are fixed arrays, so the probed
    model is untouched by construction. ValueError for fewer than 10 triples
    or fewer than one epoch.
    """
    if epochs < 1:
        raise ValueError(f"need at least 1 probe epoch, got {epochs}")
    n = len(inputs)
    if n < 10:
        raise ValueError(f"need at least 10 triples, got {n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_train = max(1, int(round(n * 0.8)))
    tr, va = perm[:n_train], perm[n_train:]
    x_tr, y_tr = inputs[tr], targets[tr]
    x_va, y_va = Tensor(inputs[va]), Tensor(targets[va])
    best_overall = None
    for mult in PROBE_WIDTHS:
        width = mult * max(inputs.shape[1], targets.shape[1])
        p = init_mlp(rng, (inputs.shape[1], width, width, targets.shape[1]), "probe")
        opt = Adam(p, lr=PROBE_LR)
        best = None
        for _epoch in range(epochs):
            order = rng.permutation(len(tr))
            for start in range(0, len(tr), PROBE_BATCH):
                idx = order[start : start + PROBE_BATCH]
                opt.zero_grad()
                loss = ad.mse_loss(mlp(Tensor(x_tr[idx]), p, "probe", 3), Tensor(y_tr[idx]))
                backward(loss)
                opt.step()
            vloss = float(ad.mse_loss(mlp(x_va, frozen(p), "probe", 3), y_va).values)
            if best is None or vloss < best:
                best = vloss
        if best_overall is None or best < best_overall:
            best_overall = best
    return best_overall


@dataclass
class ResatReport:
    rows: list  # dicts: variant, gsc_mse_e3, resat_mse (+ before/after)
    rho: float
    rho_defined: bool

    def to_json(self):
        return {"rows": self.rows, "rho": self.rho, "rho_defined": self.rho_defined}

    def render(self) -> str:
        lines = [f"{'variant':<16} {'GSC MSE(1e-3)':>14} {'RESAT MSE':>12}"]
        for row in self.rows:
            if "resat_mse_before" in row:
                lines.append(
                    f"{row['variant'] + ' (before)':<16} {row['gsc_mse_e3']:>14.4f} "
                    f"{row['resat_mse_before']:>12.4f}"
                )
                lines.append(
                    f"{row['variant'] + ' (after)':<16} {'':>14} "
                    f"{row['resat_mse']:>12.4f}"
                )
            else:
                lines.append(
                    f"{row['variant']:<16} {row['gsc_mse_e3']:>14.4f} "
                    f"{row['resat_mse']:>12.4f}"
                )
        rho = f"{self.rho:.3f}" if self.rho_defined else "undefined"
        lines.append(f"GSC-vs-RESAT spearman rho: {rho}")
        return "\n".join(lines)


def resat_compare(variants: dict, dataset, triples, seeds, probe_epochs: int) -> ResatReport:
    """Probe each trained variant; variants maps name -> (params, cfg).

    For diffatt both the pre-attention and post-attention embeddings are
    probed. The cross-variant Spearman rho relates GSC test MSE to the
    alignment MSE (post-attention value for diffatt). ValueError for no
    variants or no seeds, before any probe runs.
    """
    if not variants:
        raise ValueError("no variants to compare")
    if not seeds:
        raise ValueError("no probe seeds: the mean RESAT MSE of none is undefined")

    def mean_mse(inputs, targets):
        return float(np.mean([resat_probe(inputs, targets, s, epochs=probe_epochs)
                              for s in seeds]))

    rows = []
    for name, (params, cfg) in variants.items():
        before = copy_params(params)
        emb = probe_embeddings(params, cfg, triples)
        gsc = evaluate(params, cfg, dataset, ks=()).mse_e3
        row = {"variant": name, "gsc_mse_e3": gsc,
               "resat_mse": mean_mse(emb["fused"], emb["target"])}
        if "pre_attention" in emb:
            row["resat_mse_before"] = mean_mse(emb["pre_attention"], emb["target"])
        if not params_equal(before, params):
            raise RuntimeError(f"probing mutated parameters of variant {name!r}")
        rows.append(row)
    if len(rows) >= 2:
        corr = spearman_checked(
            [r["gsc_mse_e3"] for r in rows], [r["resat_mse"] for r in rows]
        )
        rho, defined = corr.value, corr.defined
    else:
        rho, defined = 0.0, False
    return ResatReport(rows, rho, defined)
