"""Command-line entry point.

Subcommands: gen, ged, train, eval, resat, gradcheck. Exit codes: 0 on
success, 2 on usage errors (a bad flag value, config, dataset or checkpoint,
or a file that cannot be read or written), 3 on numeric failure (gradient
check above tolerance or non-finite, edit-distance budget exhausted, diverged
training, a report with a non-finite number).

A flag that a library call takes has the dest ``call.parameter``; a flag
left out takes that call's default, and the call checks the value.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import autodiff as ad
from .config import ConfigError, load_config, parse_temperature
from .dataset import read_dataset, read_json, write_dataset
from .encoder import LAYER_PARAMS, READOUTS, enhanced_layer, readout
from .fusion import ATTENTION_PARAMS, VARIANTS, diffatt_pair
from .ged import BACKEND, GedBudgetExceeded, ged_exact
from .graphs import Graph, require_valid
from .metrics import evaluate
from .model import ModelConfig, init_params, load_checkpoint, save_checkpoint
from .optim import BACKEND as ADAM_BACKEND, grad_check
from .resat import build_resat_dataset, resat_compare
from .synth import build_dataset
from .training import TrainConfig, train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

GRADCHECK_TOL = 1e-4


def read_graph(path) -> Graph:
    """The valid graph in a JSON graph file; ValueError for any other file."""
    doc = read_json(path, ValueError)
    try:
        g = Graph.from_json(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")
    require_valid(g)
    return g


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _finite(doc):
    """doc, or FloatingPointError if it holds a non-finite number, which JSON
    has no token for."""
    try:
        json.dumps(doc, allow_nan=False)
    except ValueError:
        raise FloatingPointError(f"non-finite number in the report {json.dumps(doc)}") from None
    return doc


def _given(args, call) -> dict:
    """The flags given for a library call, by parameter name. A flag's dest
    is ``call.parameter``; a flag left out is None, and takes the call's own
    default."""
    prefix = call + "."
    return {dest.removeprefix(prefix): value for dest, value in vars(args).items()
            if dest.startswith(prefix) and value is not None}


def cmd_gen(args) -> int:
    ds, report = build_dataset(**_given(args, "gen"))
    write_dataset(ds, args.out)
    print(
        f"wrote {args.out}: {report.num_graphs} graphs, {report.num_pairs} pairs "
        f"({report.dropped_budget} dropped over budget), "
        f"{report.expansions} search expansions"
    )
    return EXIT_OK


def cmd_ged(args) -> int:
    g1, g2 = read_graph(args.a), read_graph(args.b)
    try:
        res = ged_exact(g1, g2, **_given(args, "ged"))
    except GedBudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(json.dumps(res.to_json()))
    return EXIT_OK


def _run_configs(args, dataset) -> tuple[ModelConfig, TrainConfig]:
    """The config file's values, if one is given, under the flags given."""
    cfg = load_config(args.config) if args.config else {"model": {}, "train": {}}
    for section, values in cfg.items():
        values.update(_given(args, section))
    if "temperature" in cfg["model"]:  # text when a flag gave it
        cfg["model"]["temperature"] = parse_temperature(cfg["model"]["temperature"])
    model_cfg = ModelConfig(alphabet_size=len(dataset.alphabet), **cfg["model"])
    return model_cfg, TrainConfig(**cfg["train"])


def cmd_train(args) -> int:
    dataset = read_dataset(args.dataset)
    model_cfg, train_cfg = _run_configs(args, dataset)
    best, history = train(model_cfg, train_cfg, dataset, quiet=args.quiet)
    save_checkpoint(best, model_cfg, args.out)
    report = {
        "resolved_config": {
            "model": model_cfg.to_json(),
            "train": train_cfg.__dict__,
            "dataset": args.dataset,
        },
        "history": history,
        "backends": {"ged": BACKEND, "adam": ADAM_BACKEND},
    }
    if args.history:
        try:
            _write_json(args.history, report)
        except OSError:
            os.remove(args.out)  # a train that fails leaves no checkpoint
            raise
    print(f"wrote checkpoint {args.out} (best step {history['best_step']})")
    return EXIT_OK


def _load_model(path, dataset):
    """The checkpoint's (params, config); ValueError unless the model reads the
    dataset's alphabet."""
    params, cfg, _ = load_checkpoint(path)
    if cfg.alphabet_size != len(dataset.alphabet):
        raise ValueError(
            f"{path}: the model reads {cfg.alphabet_size} label symbols, "
            f"the dataset has {len(dataset.alphabet)}"
        )
    return params, cfg


def cmd_eval(args) -> int:
    dataset = read_dataset(args.dataset)
    params, cfg = _load_model(args.checkpoint, dataset)
    report = evaluate(params, cfg, dataset, **_given(args, "eval"))
    metrics = _finite(report.to_json())
    if args.out:
        resolved = {"model": cfg.to_json(), "dataset": args.dataset}
        _write_json(args.out, {"resolved_config": resolved, "metrics": metrics})
    print(json.dumps(metrics))
    return EXIT_OK


def cmd_resat(args) -> int:
    dataset = read_dataset(args.dataset)
    variants = {}
    for spec_item in args.checkpoint:
        if "=" not in spec_item:
            raise ConfigError(f"--checkpoint wants name=path, got {spec_item!r}")
        name, path = spec_item.split("=", 1)
        if name in variants:
            raise ConfigError(f"--checkpoint names {name!r} twice")
        variants[name] = _load_model(path, dataset)
    test_ids = {p.i for p in dataset.split_pairs("test")}
    graphs = [g for g in dataset.graphs if g.id in test_ids]
    triples, skipped = build_resat_dataset(graphs, args.per_graph, args.seed)
    report = resat_compare(variants, dataset, triples, seeds=tuple(range(args.probe_seeds)),
                           probe_epochs=args.probe_epochs)
    doc = _finite(report.to_json())
    if args.out:
        resolved = {"dataset": args.dataset, "per_graph": args.per_graph, "seed": args.seed,
                    "skipped_graphs": skipped}
        _write_json(args.out, {"resolved_config": resolved, "report": doc})
    print(report.render())
    return EXIT_OK


def _gradcheck_cases():
    rng = np.random.default_rng(7)

    def t(shape):
        return ad.Tensor(rng.uniform(-1.5, 1.5, shape), requires_grad=True)

    away_from_kink = ad.Tensor(
        rng.uniform(0.5, 1.5, (4, 3)) * np.sign(rng.uniform(-1, 1, (4, 3))),
        requires_grad=True,
    )
    # a batch of a 3-node path and a 2-node graph padded to 3 nodes
    adjacency = np.array([[[0, 1, 0], [1, 0, 1], [0, 1, 0]],
                          [[0, 1, 0], [1, 0, 0], [0, 0, 0]]], dtype=np.float64)
    mask = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])[:, :, None]
    weights = ad.Tensor(rng.uniform(-1, 1, (2, 3, 4)))
    graph_weights = ad.Tensor(rng.uniform(-1, 1, (2, 4)))
    pair_weights = ad.Tensor(rng.uniform(-1, 1, (2, 8)))
    # three dense layers whose relus see no pre-activation within 0.6 of the
    # kink: x is positive and each hidden column's weights share one sign
    signs = np.array([1.0, -1.0, 1.0])
    dense_x, *dense_layers = (ad.Tensor(v, requires_grad=True) for v in (
        rng.uniform(0.5, 1.5, (2, 3, 4)),
        rng.uniform(0.5, 1.5, (4, 3)) * signs, rng.uniform(-0.2, 0.2, 3),
        rng.uniform(0.5, 1.5, (3, 3)) * signs, rng.uniform(-0.2, 0.2, 3),
        rng.uniform(-0.3, 0.3, (3, 2)), rng.uniform(-0.3, 0.3, 2)))

    def enhanced(x, *p):
        out = enhanced_layer(x, adjacency, {f"l.{n}": v for n, v in zip(LAYER_PARAMS, p)}, "l")
        return ad.reduce_sum(ad.mul(out, weights))

    def gca(x, w):
        return ad.reduce_sum(ad.mul(readout(x, "gca", w, mask), graph_weights))

    def attention(h_i, h_j, *p):
        out, _ = diffatt_pair(h_i, h_j, dict(zip(ATTENTION_PARAMS, p)))
        return ad.reduce_sum(ad.mul(out, pair_weights))

    cases = {
        "add": (lambda a, b: ad.reduce_sum(ad.mul(ad.add(a, b), ad.add(a, b))), [t((3, 4)), t((3, 4))]),
        "sub": (lambda a, b: ad.reduce_sum(ad.mul(ad.sub(a, b), ad.sub(a, b))), [t((3, 4)), t((3, 4))]),
        "mul": (lambda a, b: ad.reduce_sum(ad.mul(a, b)), [t((3, 4)), t((3, 4))]),
        "matmul": (lambda a, b: ad.reduce_sum(ad.tanh(ad.matmul(a, b))), [t((3, 4)), t((4, 2))]),
        "abs": (lambda a: ad.reduce_sum(ad.absolute(a)), [away_from_kink]),
        "relu": (lambda a: ad.reduce_sum(ad.relu(a)), [away_from_kink]),
        "tanh": (lambda a: ad.reduce_sum(ad.tanh(a)), [t((4,))]),
        "sigmoid": (lambda a: ad.reduce_sum(ad.sigmoid(a)), [t((4,))]),
        "concat": (
            lambda a, b: ad.reduce_sum(ad.mul(ad.concat([a, b]), ad.concat([a, b]))),
            [t((3,)), t((4,))],
        ),
        "reduce_sum": (lambda a: ad.reduce_sum(ad.reduce_sum(a, axis=0)), [t((4, 3))]),
        "reduce_max": (lambda a: ad.reduce_sum(ad.reduce_max(a, axis=0)), [t((4, 3))]),
        "mse_loss": (lambda a, b: ad.mse_loss(a, b), [t((5,)), t((5,))]),
        "dense": (lambda x, *p: ad.reduce_sum(ad.tanh(ad.dense(x, [p[:2], p[2:4], p[4:]]))),
                  [dense_x, *dense_layers]),
        "enhanced_layer": (enhanced, [t((2, 3, 4)), t(()), t((4, 4)), t((4,)), t((4,)),
                                      t((4,)), t((4, 4)), t((4,)), t((4, 4)), t((4,))]),
        "gca_readout": (gca, [t((2, 3, 4)), t((4, 4))]),
        "diffatt": (attention, [t((2, 4)), t((2, 4)), t(()), t((4, 4)), t((4,)),
                                t((4, 4)), t((4,))]),
    }
    return cases


def full_model_gradcheck(hidden=8, layers=2, seed=3) -> float:
    """Worst gradient check of the whole model (diffatt fusion) over the four
    readouts, on random graphs of 4, 6 and 5 nodes encoded in one padded
    batch."""
    from .graphs import generate_er
    from .model import batch_loss

    g1 = generate_er(4, 0.5, 3, seed + 100)
    g2 = generate_er(6, 0.4, 3, seed + 200)
    g3 = generate_er(5, 0.6, 3, seed + 300)
    worst = 0.0
    for kind in READOUTS:
        cfg = ModelConfig(
            alphabet_size=3, hidden=hidden, layers=layers, readout=kind,
            fusion="diffatt", seed=seed,
        )
        params = init_params(cfg)
        names = sorted(params)

        def f(*tensors):
            p = dict(zip(names, tensors))
            return batch_loss([(g1, g2), (g3, g2)], [0.4, 0.8], p, cfg)

        worst = max(worst, grad_check(f, [params[n] for n in names]))
    return worst


def cmd_gradcheck(args) -> int:
    worst = {}
    for name, (f, inputs) in _gradcheck_cases().items():
        worst[name] = grad_check(f, inputs)
    worst["full_model"] = full_model_gradcheck()
    print(json.dumps({k: float(v) for k, v in sorted(worst.items())}, indent=1))
    bad = {k: v for k, v in worst.items() if v >= GRADCHECK_TOL}
    if bad:
        print(f"FAILED above {GRADCHECK_TOL}: {sorted(bad)}", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"all operators below {GRADCHECK_TOL}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gedraft")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a labeled synthetic dataset")
    g.add_argument("--n-graphs", type=int, required=True, dest="gen.n_graphs")
    g.add_argument("--n-min", type=int, dest="gen.n_min")
    g.add_argument("--n-max", type=int, dest="gen.n_max")
    g.add_argument("--p", type=float, dest="gen.p")
    g.add_argument("--labels", type=int, dest="gen.alphabet_size")
    g.add_argument("--seed", type=int, dest="gen.seed")
    g.add_argument("--out", required=True)
    g.add_argument("--train-frac", type=float, dest="gen.train_frac")
    g.add_argument("--val-frac", type=float, dest="gen.val_frac")
    g.add_argument("--pairs-per-graph", type=int, dest="gen.pairs_per_graph")
    g.add_argument("--budget", type=int, dest="gen.budget")
    g.set_defaults(func=cmd_gen)

    d = sub.add_parser("ged", help="exact edit distance between two graph files")
    d.add_argument("--a", required=True)
    d.add_argument("--b", required=True)
    d.add_argument("--budget", type=int, dest="ged.budget")
    d.set_defaults(func=cmd_ged)

    t = sub.add_parser("train", help="train a model on a dataset")
    t.add_argument("--dataset", required=True)
    t.add_argument("--out", required=True)
    t.add_argument(
        "--history", help="write the loss history report, with the GED and Adam backends, here"
    )
    t.add_argument("--config", help="config file (sections [model]/[train])")
    t.add_argument("--hidden", type=int, dest="model.hidden")
    t.add_argument("--layers", type=int, dest="model.layers")
    t.add_argument("--readout", choices=READOUTS, dest="model.readout")
    t.add_argument("--fusion", choices=VARIANTS, dest="model.fusion")
    t.add_argument("--temperature", dest="model.temperature")
    t.add_argument("--seed", type=int, dest="model.seed")
    t.add_argument("--epochs", type=int, dest="train.epochs")
    t.add_argument("--batch-size", type=int, dest="train.batch_size")
    t.add_argument("--lr", type=float, dest="train.lr")
    t.add_argument("--validations", type=int, dest="train.validations")
    t.add_argument("--train-seed", type=int, dest="train.seed")
    t.add_argument("--quiet", action="store_true")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    e.add_argument("--dataset", required=True)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--out")
    e.add_argument("--k", type=int, action="append", dest="eval.ks", help="P@k cutoff, repeatable")
    e.set_defaults(func=cmd_eval)

    r = sub.add_parser("resat", help="remaining-subgraph alignment comparison")
    r.add_argument("--dataset", required=True)
    r.add_argument(
        "--checkpoint", action="append", required=True, metavar="NAME=PATH"
    )
    r.add_argument("--per-graph", type=int, default=10)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--probe-seeds", type=int, default=1)
    r.add_argument("--probe-epochs", type=int, default=200)
    r.add_argument("--out")
    r.set_defaults(func=cmd_resat)

    c = sub.add_parser("gradcheck", help="finite-difference check of all operators")
    c.set_defaults(func=cmd_gradcheck)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        # a failure is reported by its error line, not by NumPy's warnings
        with np.errstate(all="ignore"):
            return args.func(args)
    # ConfigError, DatasetFormatError and CheckpointError are ValueErrors; a
    # diverged training and a non-finite gradient check, FloatingPointErrors
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC if isinstance(exc, FloatingPointError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
