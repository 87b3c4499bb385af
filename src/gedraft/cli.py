"""Command-line entry point.

Subcommands: gen, ged, train, eval, resat, gradcheck. Exit codes: 0 on
success, 2 on usage errors (a bad flag value, config, dataset or checkpoint,
or a file that cannot be read or written), 3 on numeric failure (gradient
check above tolerance, edit-distance budget exhausted).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import autodiff as ad
from .config import ConfigError, load_config, parse_temperature
from .dataset import read_dataset, write_dataset
from .encoder import LAYER_PARAMS, READOUTS, enhanced_layer, readout
from .fusion import ATTENTION_PARAMS, VARIANTS, diffatt_pair
from .ged import BACKEND, DEFAULT_BUDGET, GedBudgetExceeded, ged_exact
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
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
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


def cmd_gen(args) -> int:
    ds, report = build_dataset(
        n_graphs=args.n_graphs,
        n_min=args.n_min,
        n_max=args.n_max,
        p=args.p,
        alphabet_size=args.labels,
        seed=args.seed,
        train_frac=args.train_frac,
        val_frac=args.val_frac,
        pairs_per_graph=args.pairs_per_graph,
        budget=args.budget,
    )
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
        res = ged_exact(g1, g2, args.budget)
    except GedBudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(json.dumps(res.to_json()))
    return EXIT_OK


def _run_configs(args, dataset) -> tuple[ModelConfig, TrainConfig]:
    """The config file's values, if one is given, under the flags given. A
    flag's dest names its section and key."""
    cfg = load_config(args.config) if args.config else {"model": {}, "train": {}}
    for dest, value in vars(args).items():
        section, dot, key = dest.partition(".")
        if dot and value is not None:
            cfg[section][key] = parse_temperature(value) if key == "temperature" else value
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
        "history": {
            "train_loss": history["train_loss"],
            "val_loss": history["val_loss"],
            "best_step": history["best_step"],
        },
        "backends": {"ged": BACKEND, "adam": ADAM_BACKEND},
    }
    if args.history:
        _write_json(args.history, report)
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
    report = evaluate(params, cfg, dataset, ks=tuple(args.k or (10, 20)))
    doc = {
        "resolved_config": {"model": cfg.to_json(), "dataset": args.dataset},
        "metrics": report.to_json(),
    }
    if args.out:
        _write_json(args.out, doc)
    print(json.dumps(report.to_json()))
    return EXIT_OK


def cmd_resat(args) -> int:
    dataset = read_dataset(args.dataset)
    variants = {}
    for spec_item in args.checkpoint:
        if "=" not in spec_item:
            raise ConfigError(f"--checkpoint wants name=path, got {spec_item!r}")
        name, path = spec_item.split("=", 1)
        variants[name] = _load_model(path, dataset)
    test_ids = {p.i for p in dataset.split_pairs("test")}
    graphs = [g for g in dataset.graphs if g.id in test_ids]
    triples, skipped = build_resat_dataset(graphs, args.per_graph, args.seed)
    report = resat_compare(
        variants,
        dataset,
        triples,
        seeds=tuple(range(args.probe_seeds)),
        probe_epochs=args.probe_epochs,
    )
    if args.out:
        _write_json(
            args.out,
            {
                "resolved_config": {
                    "dataset": args.dataset,
                    "per_graph": args.per_graph,
                    "seed": args.seed,
                    "skipped_graphs": skipped,
                },
                "report": report.to_json(),
            },
        )
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
        "linear": (lambda x, w, b: ad.reduce_sum(ad.tanh(ad.linear(x, w, b))),
                   [t((2, 3, 4)), t((4, 2)), t((2,))]),
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
    g.add_argument("--n-graphs", type=int, required=True)
    g.add_argument("--n-min", type=int, default=5)
    g.add_argument("--n-max", type=int, default=8)
    g.add_argument("--p", type=float, default=0.4)
    g.add_argument("--labels", type=int, default=3)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--train-frac", type=float, default=0.6)
    g.add_argument("--val-frac", type=float, default=0.2)
    g.add_argument("--pairs-per-graph", type=int, default=10)
    g.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    g.set_defaults(func=cmd_gen)

    d = sub.add_parser("ged", help="exact edit distance between two graph files")
    d.add_argument("--a", required=True)
    d.add_argument("--b", required=True)
    d.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
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
    e.add_argument("--k", type=int, action="append", help="P@k cutoff, repeatable (default 10 and 20)")
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
        return args.func(args)
    # ConfigError, DatasetFormatError and CheckpointError are ValueErrors
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
