"""Permutation-invariant multi-scale graph encoder.

A linear input projection is followed by K enhanced message-passing layers
(isomorphism-network aggregation -> linear -> layer norm -> relu, residual
add, then a two-layer feed-forward block). A graph-level readout (mean,
max, sum, or global context attention) is taken at every scale 0..K.

``init_mlp`` and ``mlp`` are the one relu MLP of the model stack, used by
the feed-forward blocks, the fusion MLPs, the regressor and the RESAT probe.

A batch of graphs is encoded in one pass: node features and adjacency are
zero-padded to the batch's largest graph, and a node mask keeps the padded
rows out of every readout. A padded row has no edges, so message passing
never carries it into a real node.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graphs import Graph

READOUTS = ("mean", "max", "sum", "gca")


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
    """``depth`` linear layers with a relu between layers, none after the last."""
    for k in range(1, depth + 1):
        x = ad.linear(x, params[f"{prefix}.W{k}"], params[f"{prefix}.b{k}"])
        if k < depth:
            x = ad.relu(x)
    return x


def init_encoder_params(
    rng: np.random.Generator, alphabet_size: int, hidden: int, layers: int, readout: str
) -> dict:
    if layers < 1:
        raise ValueError(f"need layers >= 1, got {layers}")
    if readout not in READOUTS:
        raise ValueError(f"unknown readout {readout!r}")
    p: dict[str, Tensor] = {}

    def param(name, values):
        p[name] = Tensor(values, requires_grad=True)

    param("encoder.proj.W", xavier_uniform(rng, alphabet_size, hidden, (alphabet_size, hidden)))
    param("encoder.proj.b", np.zeros(hidden))
    for k in range(1, layers + 1):
        pre = f"encoder.layer{k}"
        param(f"{pre}.eps", np.zeros(()))
        param(f"{pre}.gin.W", xavier_uniform(rng, hidden, hidden, (hidden, hidden)))
        param(f"{pre}.gin.b", np.zeros(hidden))
        param(f"{pre}.gin.ln.gain", np.ones(hidden))
        param(f"{pre}.gin.ln.bias", np.zeros(hidden))
        p.update(init_mlp(rng, (hidden, hidden, hidden), f"{pre}.ffn"))
    if readout == "gca":
        for k in range(layers + 1):
            param(f"encoder.gca.W{k}", xavier_uniform(rng, hidden, hidden, (hidden, hidden)))
    return p


def gin_aggregate(x, adjacency, eps) -> Tensor:
    """(1 + eps) * x_i + sum of neighbor features.

    x is (n, h) or batched (B, n, h) with adjacency (n, n) / (B, n, n);
    eps may be a float or a scalar Tensor.
    """
    x = ad.as_tensor(x)
    adjacency = ad.as_tensor(adjacency)
    if x.shape[:-1] != adjacency.shape[:-1]:
        raise ad.ShapeError(
            f"adjacency shape {adjacency.shape} does not match features {x.shape}"
        )
    scale = ad.add(eps, Tensor(1.0)) if isinstance(eps, Tensor) else float(1 + eps)
    self_term = ad.mul(x, scale) if isinstance(scale, Tensor) else ad.scalar_mul(x, scale)
    return ad.add(self_term, ad.matmul(adjacency, x))


def enhanced_layer(x, adjacency, params: dict, prefix: str) -> Tensor:
    """x + GIN(x) through a feed-forward block: FFN(x + GIN(x))."""
    agg = gin_aggregate(x, adjacency, params[f"{prefix}.eps"])
    lin = ad.linear(agg, params[f"{prefix}.gin.W"], params[f"{prefix}.gin.b"])
    gin = ad.relu(
        ad.layer_norm(lin, params[f"{prefix}.gin.ln.gain"], params[f"{prefix}.gin.ln.bias"])
    )
    return mlp(ad.add(x, gin), params, f"{prefix}.ffn", 2)


def readout(x, kind: str, weight=None, mask=None) -> Tensor:
    """Aggregate node features (n, h) or (B, n, h) into graph vector(s);
    gca takes batched (B, n, h) features only.

    ``mask`` (n, 1) or (B, n, 1) is 1 on real nodes and 0 on padding, and
    defaults to all real. Mean and sum reduce over real nodes, max adds -inf
    to padded rows, and gca masks its context mean and its scores.
    """
    x = ad.as_tensor(x)
    node_axis = x.ndim - 2
    if mask is None:
        mask = np.ones(x.shape[:-1] + (1,))
    if kind == "max":
        padding = Tensor(np.where(mask > 0, 0.0, -np.inf))
        return ad.reduce_max(ad.add(x, padding), axis=node_axis)
    if kind == "sum":
        return ad.reduce_sum(ad.mul(x, Tensor(mask)), axis=node_axis)
    mean_weights = Tensor(mask / mask.sum(axis=node_axis, keepdims=True))
    mean = ad.reduce_sum(ad.mul(x, mean_weights), axis=node_axis)
    if kind == "mean":
        return mean
    if kind == "gca":
        if weight is None:
            raise ValueError("gca readout needs its weight matrix")
        if x.ndim != 3:
            raise ad.ShapeError(f"gca readout needs features (B, n, h), got {x.shape}")
        context = ad.tanh(ad.matmul(mean, weight))
        b, _, h = x.shape
        scores = ad.sigmoid(ad.matmul(x, ad.reshape(context, (b, h, 1))))  # (B,n,1)
        out = ad.matmul(ad.swapaxes(ad.mul(scores, Tensor(mask)), 1, 2), x)  # (B,1,h)
        return ad.reshape(out, (b, h))
    raise ValueError(f"unknown readout {kind!r}")


def _encode_stack(xs: Tensor, adjacency: Tensor, mask: np.ndarray, params, layers, readout_kind):
    """Per-scale readouts for one padded batch of graphs."""
    scales = []

    def read(x, k):
        w = params.get(f"encoder.gca.W{k}") if readout_kind == "gca" else None
        return readout(x, readout_kind, w, mask)

    x = ad.linear(xs, params["encoder.proj.W"], params["encoder.proj.b"])
    scales.append(read(x, 0))
    for k in range(1, layers + 1):
        x = enhanced_layer(x, adjacency, params, f"encoder.layer{k}")
        scales.append(read(x, k))
    return scales


def distinct_graphs(graphs: list[Graph]) -> tuple[list[Graph], list[int]]:
    """Distinct-id graphs in first-seen order, and each input's row among them."""
    rows: dict[str, int] = {}
    unique: list[Graph] = []
    for g in graphs:
        if g.id not in rows:
            rows[g.id] = len(unique)
            unique.append(g)
    return unique, [rows[g.id] for g in graphs]


def encode_graphs(
    graphs: list[Graph], params: dict, alphabet_size: int, layers: int, readout_kind: str
) -> list[Tensor]:
    """Encode a batch of graphs; returns one (B, hidden) tensor per scale.

    Rows follow the input order. All graphs run as one batched pass over
    one-hot features (B, n_max, alphabet_size), adjacency (B, n_max, n_max)
    and a node mask (B, n_max, 1), zero-padded to the largest graph.
    """
    sizes = np.array([g.n for g in graphs])
    labels = np.array([label for g in graphs for label in g.labels], dtype=np.intp)
    if labels.max() >= alphabet_size:
        bad = next(g for g in graphs if max(g.labels) >= alphabet_size)
        raise ValueError(f"graph {bad.id!r} has a label outside the alphabet")
    n_max = int(sizes.max())
    row = np.repeat(np.arange(len(graphs)), sizes)  # each node's graph
    node = np.arange(len(labels)) - (np.cumsum(sizes) - sizes)[row]
    xs = np.zeros((len(graphs), n_max, alphabet_size))
    xs[row, node, labels] = 1.0
    edges = [(b, u, v) for b, g in enumerate(graphs) for u, v in g.edges]
    b, u, v = np.array(edges, dtype=np.intp).reshape(-1, 3).T
    adj = np.zeros((len(graphs), n_max, n_max))
    adj[b, u, v] = adj[b, v, u] = 1.0
    mask = (np.arange(n_max) < sizes[:, None])[:, :, None].astype(np.float64)
    return _encode_stack(Tensor(xs), Tensor(adj), mask, params, layers, readout_kind)


def encode(g: Graph, params: dict, alphabet_size: int, layers: int, readout_kind: str):
    """Multi-scale embedding of a single graph: K+1 vectors of width hidden."""
    scales = encode_graphs([g], params, alphabet_size, layers, readout_kind)
    return [ad.reshape(s, (s.shape[1],)) for s in scales]
