"""Permutation-invariant multi-scale graph encoder.

A linear input projection is followed by K enhanced message-passing layers
(isomorphism-network aggregation -> linear -> layer norm -> relu, residual
add, then a two-layer feed-forward block). A graph-level readout (mean,
max, sum, or global context attention) is taken at every scale 0..K.

Each enhanced layer and each gca readout is one autodiff node
(``autodiff.node``): its value and gradients are those of the composed
elementary ops bit for bit, at one tape node instead of a dozen.

``init_mlp`` makes the parameters of every relu MLP of the model stack.
``mlp`` runs the efn fusion MLP, the regressor and the RESAT probe as one
``ad.dense`` node each; the feed-forward blocks and the difference
attention MLP run the same ``ad.dense_values`` inside their own nodes.

A batch of graphs is encoded in one pass: node features and adjacency are
zero-padded to the batch's largest graph, and a node mask keeps the padded
rows out of every readout. A padded row has no edges, so message passing
never carries it into a real node.

``init_encoder_params`` and ``encode_graphs`` take the model's
``ModelConfig`` whole and check none of it again: ``ModelConfig`` is the
one place the model's options are checked. The block-level ops
``enhanced_layer`` and ``readout`` take plain arguments, so that the
gradient check and the tests can call them on their own.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graphs import Graph

if TYPE_CHECKING:  # model imports this module
    from .model import ModelConfig

READOUTS = ("mean", "max", "sum", "gca")
LAYER_NORM_EPS = 1e-5
# the parameters of encoder layer k, each named encoder.layer{k}.{name}
LAYER_PARAMS = ("eps", "gin.W", "gin.b", "gin.ln.gain", "gin.ln.bias",
                "ffn.W1", "ffn.b1", "ffn.W2", "ffn.b2")


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


def init_mlp(rng: np.random.Generator, widths, prefix: str) -> dict:
    """Layer k from widths[k-1] to widths[k]: Xavier ``{prefix}.W{k}``, drawn
    for k = 1, 2, ... in order, and zero ``{prefix}.b{k}``."""
    p: dict[str, Tensor] = {}
    for k, (fan_in, fan_out) in enumerate(zip(widths, widths[1:]), 1):
        p[f"{prefix}.W{k}"] = Tensor(
            xavier_uniform(rng, fan_in, fan_out, (fan_in, fan_out)), requires_grad=True
        )
        p[f"{prefix}.b{k}"] = Tensor(np.zeros(fan_out), requires_grad=True)
    return p


def mlp(x, params: dict, prefix: str, depth: int) -> Tensor:
    """``depth`` linear layers with a relu between layers, none after the
    last, as one ``ad.dense`` node."""
    return ad.dense(x, [(params[f"{prefix}.W{k}"], params[f"{prefix}.b{k}"])
                        for k in range(1, depth + 1)])


def init_encoder_params(rng: np.random.Generator, cfg: ModelConfig) -> dict:
    alphabet, hidden = cfg.alphabet_size, cfg.hidden
    p: dict[str, Tensor] = {}

    def param(name, values):
        p[name] = Tensor(values, requires_grad=True)

    param("encoder.proj.W", xavier_uniform(rng, alphabet, hidden, (alphabet, hidden)))
    param("encoder.proj.b", np.zeros(hidden))
    for k in range(1, cfg.layers + 1):
        pre = f"encoder.layer{k}"
        param(f"{pre}.eps", np.zeros(()))
        param(f"{pre}.gin.W", xavier_uniform(rng, hidden, hidden, (hidden, hidden)))
        param(f"{pre}.gin.b", np.zeros(hidden))
        param(f"{pre}.gin.ln.gain", np.ones(hidden))
        param(f"{pre}.gin.ln.bias", np.zeros(hidden))
        p.update(init_mlp(rng, (hidden, hidden, hidden), f"{pre}.ffn"))
    if cfg.readout == "gca":
        for k in range(cfg.layers + 1):
            param(f"encoder.gca.W{k}", xavier_uniform(rng, hidden, hidden, (hidden, hidden)))
    return p


def enhanced_layer(x, adjacency: np.ndarray, params: dict, prefix: str) -> Tensor:
    """FFN(x + GIN(x)) as one tape node, where GIN(x) is
    relu(layer_norm(((1 + eps) * x + A x) W + b)) and FFN is a two-layer relu
    MLP; the GIN linear and the FFN run through ``ad.dense_values``.

    x is (B, n, h) with adjacency A (B, n, n). The value and the gradients
    are those of the composed ops (add, mul, matmul, layer norm, relu) bit
    for bit: each expression is theirs, in their order.
    """
    x = ad.as_tensor(x)
    p = [params[f"{prefix}.{name}"] for name in LAYER_PARAMS]
    eps, w, b, gain, bias, w1, b1, w2, b2 = (t.values for t in p)
    xv = x.values
    scale = eps + 1.0
    agg = xv * scale + np.matmul(adjacency, xv)
    lin, gin_grads = ad.dense_values(agg, [(w, b)], True)
    mu = lin.mean(axis=-1, keepdims=True)
    var = lin.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = (lin - mu) * inv
    normed = xhat * gain + bias
    gin_on = normed > 0
    res = xv + normed * gin_on
    out, ffn_grads = ad.dense_values(res, [(w1, b1), (w2, b2)], True)

    def grads(g):
        g_res, *g_ffn = ffn_grads(g)
        g_normed = g_res * gin_on
        dxhat = g_normed * gain
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        g_lin = (dxhat - m1 - xhat * m2) * inv
        lead = tuple(range(xv.ndim - 1))
        g_gain = (g_normed * xhat).sum(axis=lead)
        g_bias = g_normed.sum(axis=lead)
        g_agg, g_w, g_b = gin_grads(g_lin)
        g_x_adj = ad.matmul_grad_right(adjacency, g_agg, x.shape)
        g_x_self = g_agg * scale
        g_eps = ad.unbroadcast(g_agg * xv, ())
        return [g_res, g_x_adj, g_x_self, g_eps, g_w, g_b, g_gain, g_bias, *g_ffn]

    # x three times: the residual, the neighbour sum and the self term hand
    # it their gradients in that order
    return ad.node(out, [x, x, x, *p], grads)


def _gca(x: Tensor, weight: Tensor, mask: np.ndarray) -> Tensor:
    """Global context attention over (B, n, h) features as one tape node:
    context c = tanh(masked mean(x) W), node scores sigmoid(x c) on real
    nodes, and the score-weighted sum of x. Bit for bit the composed ops."""
    xv, wv = x.values, weight.values
    b, _, h = x.shape
    mean_weights = mask / mask.sum(axis=1, keepdims=True)
    weighted = xv * mean_weights
    mean = weighted.sum(axis=(1,))
    context = np.tanh(np.matmul(mean, wv))
    column = context.reshape((b, h, 1))
    scores = 1.0 / (1.0 + np.exp(-np.matmul(xv, column)))  # (B, n, 1)
    row = np.swapaxes(scores * mask, 1, 2)  # (B, 1, n)
    out = np.matmul(row, xv).reshape((b, h))

    def grads(g):
        g_out = g.reshape((b, 1, h))
        g_x_out = ad.matmul_grad_right(row, g_out, x.shape)
        g_scores = np.swapaxes(ad.matmul_grad_left(g_out, xv, row.shape), 1, 2) * mask
        g_logits = g_scores * scores * (1.0 - scores)
        g_x_scores = ad.matmul_grad_left(g_logits, column, x.shape)
        g_context = ad.matmul_grad_right(xv, g_logits, column.shape).reshape(context.shape)
        g_pre = g_context * (1.0 - context * context)
        g_mean = ad.matmul_grad_left(g_pre, wv, mean.shape)
        g_w = ad.matmul_grad_right(mean, g_pre, wv.shape)
        g_weighted = np.broadcast_to(np.expand_dims(g_mean, (1,)), weighted.shape).copy()
        g_x_mean = g_weighted * mean_weights
        return [g_x_out, g_x_scores, g_w, g_x_mean]

    # x three times: the pooled sum, the scores and the context mean hand it
    # their gradients in that order
    return ad.node(out, [x, x, weight, x], grads)


def readout(x, kind: str, weight, mask) -> Tensor:
    """Aggregate batched node features (B, n, h) into graph vectors (B, h).

    ``mask`` (B, n, 1) is 1 on real nodes and 0 on padding, and ``weight``
    is gca's matrix (None for the other kinds). Mean and sum reduce over
    real nodes, max adds -inf to padded rows, and gca masks its context
    mean and its scores.
    """
    x = ad.as_tensor(x)
    if x.ndim != 3:
        raise ad.ShapeError(f"readout needs features (B, n, h), got {x.shape}")
    if kind == "max":
        padding = Tensor(np.where(mask > 0, 0.0, -np.inf))
        return ad.reduce_max(ad.add(x, padding), axis=1)
    if kind == "sum":
        return ad.reduce_sum(ad.mul(x, Tensor(mask)), axis=1)
    if kind == "mean":
        mean_weights = Tensor(mask / mask.sum(axis=1, keepdims=True))
        return ad.reduce_sum(ad.mul(x, mean_weights), axis=1)
    if kind == "gca":
        if weight is None:
            raise ValueError("gca readout needs its weight matrix")
        return _gca(x, weight, mask)
    raise ValueError(f"unknown readout {kind!r}")


def distinct_graphs(graphs: list[Graph]) -> tuple[list[Graph], list[int]]:
    """The distinct graph objects in first-seen order, and each input's row
    among them. Keyed on the object, not on ``Graph.id``, which two graphs
    may share (RESAT's subgraphs do); ``graphs`` keeps every object alive,
    so no key is reused."""
    unique = {id(g): g for g in graphs}
    rows = {key: row for row, key in enumerate(unique)}
    return list(unique.values()), [rows[id(g)] for g in graphs]


def pad_batch(graphs: list[Graph], alphabet_size: int):
    """One-hot features (B, n_max, alphabet_size), adjacency (B, n_max, n_max)
    and node mask (B, n_max, 1) of the graphs, zero-padded to the largest."""
    sizes = np.array([g.n for g in graphs])
    labels = np.concatenate([g.label_array for g in graphs])
    if labels.max() >= alphabet_size:
        bad = next(g for g in graphs if max(g.labels) >= alphabet_size)
        raise ValueError(f"graph {bad.id!r} has a label outside the alphabet")
    n_max = int(sizes.max())
    row = np.repeat(np.arange(len(graphs)), sizes)  # each node's graph
    node = np.arange(len(labels)) - (np.cumsum(sizes) - sizes)[row]
    xs = np.zeros((len(graphs), n_max, alphabet_size))
    xs[row, node, labels] = 1.0
    b = np.repeat(np.arange(len(graphs)), [g.num_edges for g in graphs])
    u, v = np.concatenate([g.edge_array for g in graphs]).T
    adj = np.zeros((len(graphs), n_max, n_max))
    adj[b, u, v] = adj[b, v, u] = 1.0
    mask = (np.arange(n_max) < sizes[:, None])[:, :, None].astype(np.float64)
    return xs, adj, mask


def encode_graphs(graphs: list[Graph], params: dict, cfg: ModelConfig) -> list[Tensor]:
    """Encode a batch of graphs; returns one (B, hidden) tensor per scale.

    Rows follow the input order. All graphs run as one batched pass over
    their ``pad_batch`` arrays.
    """
    xs, adjacency, mask = pad_batch(graphs, cfg.alphabet_size)

    def read(x, k):
        w = params.get(f"encoder.gca.W{k}") if cfg.readout == "gca" else None
        return readout(x, cfg.readout, w, mask)

    x = ad.dense(Tensor(xs), [(params["encoder.proj.W"], params["encoder.proj.b"])])
    scales = [read(x, 0)]
    for k in range(1, cfg.layers + 1):
        x = enhanced_layer(x, adjacency, params, f"encoder.layer{k}")
        scales.append(read(x, k))
    return scales
