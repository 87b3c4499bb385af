"""The four workloads: their inputs, set-up, timed part and checks.

Every input is generated here from pinned seeds and the run's ``--seed``;
gedraft only receives the generated inputs. ``full`` is the measured size;
``tiny`` is a seconds-long pass of the same code for the benchmark's tests.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass, field

from gedraft import dataset, metrics, model, resat, synth, training
from gedraft.ged import _astar_py, apply_edit_path, core, ged_bruteforce, ged_exact
from speed import Speed

P_EDGE = 0.4
ALPHABET = 3
# quality outputs, lower is better, pinned in pins.json
QUALITY = {"train-eval": ("test_mse_e3",), "resat": ("resat_mse", "resat_mse_pre")}
# a quality output may be this much worse (relative) than its pinned value:
# three times the largest change seen when training under round-off-sized
# perturbations (README.md)
QUALITY_TOLERANCE = 0.03

SCALES = {
    "full": {
        # labeling pools: unit k is build_dataset(seed=seed0 + k)
        "gen-mid": {"units": 12, "n_graphs": 16, "n_min": 5, "n_max": 8, "seed0": 1000},
        "gen-small": {"units": 20, "n_graphs": 120, "n_min": 3, "n_max": 5, "seed0": 2000},
        # the labeled dataset train-eval and resat start from
        "fixture": {"n_graphs": 80, "n_min": 4, "n_max": 7, "seed": 3000},
        "model": {"hidden": 32, "layers": 2, "readout": "gca", "fusion": "diffatt", "seed": 0},
        "train": {"epochs": 10, "batch_size": 128, "lr": 0.001, "validations": 20, "seed": 0},
        "resat": {"per_graph": 15, "probe_epochs": 25, "seed": 0},
        "samples": {"bruteforce": 32, "replay": 16, "kernels": 16},
    },
    "tiny": {
        "gen-mid": {"units": 2, "n_graphs": 6, "n_min": 5, "n_max": 6, "seed0": 1000},
        "gen-small": {"units": 2, "n_graphs": 12, "n_min": 3, "n_max": 5, "seed0": 2000},
        "fixture": {"n_graphs": 30, "n_min": 4, "n_max": 6, "seed": 3000},
        "model": {"hidden": 8, "layers": 1, "readout": "gca", "fusion": "diffatt", "seed": 0},
        "train": {"epochs": 2, "batch_size": 32, "lr": 0.001, "validations": 2, "seed": 0},
        "resat": {"per_graph": 4, "probe_epochs": 2, "seed": 0},
        "samples": {"bruteforce": 4, "replay": 4, "kernels": 4},
    },
}

WORKLOADS = ("gen-mid", "gen-small", "train-eval", "resat")


@dataclass
class Rep:
    """One repetition of a workload's timed part."""

    wall: float  # seconds of the timed part
    items: int  # work items done: labeled pairs, training steps, probe epochs
    item_s: float  # seconds spent on those items
    attempted: int
    failed: int  # budget drops and non-finite losses
    output: object  # compared between repetitions; must not change
    extra: dict = field(default_factory=dict)


def label_digest(ds) -> str:
    """Digest of the sorted exact labels; independent of the file format."""
    rows = sorted((p.i, p.j, p.ged) for p in ds.pairs)
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def gen_unit(cfg, k):
    return synth.build_dataset(
        n_graphs=cfg["n_graphs"],
        n_min=cfg["n_min"],
        n_max=cfg["n_max"],
        p=P_EDGE,
        alphabet_size=ALPHABET,
        seed=cfg["seed0"] + k,
    )


def fixture(cfg):
    f = cfg["fixture"]
    ds, _report = synth.build_dataset(
        n_graphs=f["n_graphs"], n_min=f["n_min"], n_max=f["n_max"],
        p=P_EDGE, alphabet_size=ALPHABET, seed=f["seed"],
    )
    return ds


def configs(cfg):
    return (
        model.ModelConfig(alphabet_size=ALPHABET, **cfg["model"]),
        training.TrainConfig(**cfg["train"]),
    )


def _nonfinite(values) -> int:
    return sum(not math.isfinite(v) for v in values)


def setup(name, cfg, seed, outdir) -> None:
    """The work before the timed part, run in a fresh interpreter.

    Labeling workloads need only the imports. train-eval and resat label the
    fixture and write it with its graph records in a ``seed`` order, which
    no output may depend on; resat also trains and saves the model it probes.
    """
    if name not in ("train-eval", "resat"):
        return
    ds = fixture(cfg)
    graphs = list(ds.graphs)
    random.Random(seed).shuffle(graphs)
    dataset.write_dataset(dataset.Dataset(ds.alphabet, graphs, ds.pairs), outdir / "data.json")
    if name == "resat":
        mcfg, tcfg = configs(cfg)
        params, _history = training.train(mcfg, tcfg, ds)
        model.save_checkpoint(params, mcfg, outdir / "model.json")


class Run:
    """State shared by a run's repetitions and checks."""

    def __init__(self, name, cfg, seed, workdir, pins):
        self.name, self.cfg, self.seed, self.workdir, self.pins = name, cfg, seed, workdir, pins
        self.last = None  # inputs and outputs of the latest repetition
        self.speed = Speed()  # probes between units of work
        if name.startswith("gen-"):
            self.order = list(range(cfg[name]["units"]))
            random.Random(seed).shuffle(self.order)

    def rep(self) -> Rep:
        self.speed.sample()
        if self.name == "train-eval":
            return self._train_eval()
        if self.name == "resat":
            return self._resat()
        return self._gen()

    # -- timed parts ---------------------------------------------------------

    def _gen(self) -> Rep:
        cfg = self.cfg[self.name]
        clock = time.perf_counter
        wall, pairs, dropped = 0.0, 0, 0
        # free the previous repetition's datasets: a larger heap slows the
        # garbage collector, which would bias later repetitions
        self.last = None
        units = {}
        for i, k in enumerate(self.order):
            if i:
                self.speed.sample()
            path = self.workdir / f"unit{k}.json"
            t0 = clock()
            ds, report = gen_unit(cfg, k)
            dataset.write_dataset(ds, path)
            wall += clock() - t0
            pairs += report.num_pairs
            dropped += report.dropped_budget
            units[k] = (ds, path)
        self.last = units
        digests = {k: label_digest(ds) for k, (ds, _) in units.items()}
        return Rep(wall, pairs, wall, pairs + dropped, dropped, digests)

    def _train_eval(self) -> Rep:
        mcfg, tcfg = configs(self.cfg)
        ckpt = self.workdir / "trained.json"
        clock = time.perf_counter
        t0 = clock()
        ds = dataset.read_dataset(self.workdir / "data.json")
        t1 = clock()
        params, history = training.train(mcfg, tcfg, ds)
        t2 = clock()
        model.save_checkpoint(params, mcfg, ckpt)
        loaded, loaded_cfg, _ = model.load_checkpoint(ckpt)
        t3 = clock()
        report = metrics.evaluate(loaded, loaded_cfg, ds)
        t4 = clock()
        losses = [v for _, v in history["train_loss"] + history["val_loss"]]
        steps = len(history["train_loss"])
        output = {
            "labels": label_digest(ds),
            "metrics": report.to_json(),
            "checkpoint": hashlib.sha256(ckpt.read_bytes()).hexdigest(),
            "round_trip": model.params_equal(params, loaded),
        }
        extra = {"eval_pairs_per_s": report.num_pairs / (t4 - t3), "test_mse_e3": report.mse_e3}
        return Rep(t4 - t0, steps, t2 - t1, steps, _nonfinite(losses + [report.mse_e3]),
                   output, extra)

    def _resat(self) -> Rep:
        rcfg = self.cfg["resat"]
        epochs = rcfg["probe_epochs"]
        # two probed inputs, each over resat_probe's grid of two widths
        probe_epochs = 2 * 2 * epochs
        clock = time.perf_counter
        t0 = clock()
        ds = dataset.read_dataset(self.workdir / "data.json")
        params, mcfg, _ = model.load_checkpoint(self.workdir / "model.json")
        test_ids = {p.i for p in ds.split_pairs("test")}
        graphs = sorted((g for g in ds.graphs if g.id in test_ids), key=lambda g: g.id)
        triples, _skipped = resat.build_resat_dataset(graphs, rcfg["per_graph"], rcfg["seed"])
        emb = resat.probe_embeddings(params, mcfg, triples)
        t1 = clock()
        mse = resat.resat_probe(emb["fused"], emb["target"], rcfg["seed"], epochs=epochs)
        mse_pre = resat.resat_probe(
            emb["pre_attention"], emb["target"], rcfg["seed"], epochs=epochs
        )
        t2 = clock()
        self.last = params
        output = {"labels": label_digest(ds), "triples": len(triples), "mse": (mse, mse_pre)}
        extra = {"probe_epochs": probe_epochs, "resat_mse": mse, "resat_mse_pre": mse_pre}
        return Rep(t2 - t0, probe_epochs, t2 - t1, probe_epochs, _nonfinite([mse, mse_pre]),
                   output, extra)

    # -- checks --------------------------------------------------------------

    def checks(self, reps) -> list[tuple[str, bool]]:
        """(name, passed) for every correctness check of the run."""
        out = [
            (f"repetition {i} output equals repetition 0", r.output == reps[0].output)
            for i, r in enumerate(reps[1:], 1)
        ]
        pins = self.pins
        if self.name.startswith("gen-"):
            cfg = self.cfg[self.name]
            for r in reps:
                for k, digest in r.output.items():
                    out.append((f"unit {cfg['seed0'] + k} labels match the pin",
                                digest == pins[self.name][str(cfg["seed0"] + k)]))
            out += self._gen_checks()
        else:
            rep = reps[0]
            out.append(("fixture labels match the pin", rep.output["labels"] == pins["fixture"]))
            if self.name == "train-eval":
                out.append(("checkpoint round trip restores every parameter",
                            rep.output["round_trip"]))
            else:
                saved, _, _ = model.load_checkpoint(self.workdir / "model.json")
                out.append(("probing left the model unchanged",
                            model.params_equal(saved, self.last)))
            for key in QUALITY[self.name]:
                value, pinned = rep.extra[key], pins[key]
                out.append((f"{key} {value!r} within {QUALITY_TOLERANCE:.0%} of pinned {pinned!r}",
                            math.isfinite(value) and value <= pinned * (1 + QUALITY_TOLERANCE)))
        return out

    def quality_ratio(self, rep) -> float:
        """The worst of pinned over measured quality output: 1 at the pins,
        below 1 when the model trains worse. Labeling workloads have exact
        labels, checked by digest, so they report 1."""
        ratios = []
        for key in QUALITY.get(self.name, ()):
            value = rep.extra[key]
            ratios.append(self.pins[key] / value if math.isfinite(value) and value > 0 else 0.0)
        return min(ratios, default=1.0)

    def _gen_checks(self):
        samples = self.cfg["samples"]
        rng = random.Random(self.seed)
        out = []
        pairs = []
        for ds, path in self.last.values():
            back = dataset.read_dataset(path)
            out.append((f"{path.name} reads back equal",
                        back.graphs == ds.graphs and back.pairs == ds.pairs))
            pairs += [(ds.graph(p.i), ds.graph(p.j), p.ged) for p in ds.pairs]
        small = [t for t in pairs if max(t[0].n, t[1].n) <= 6]
        if self.name == "gen-small":
            for g1, g2, ged in rng.sample(small, min(samples["bruteforce"], len(small))):
                out.append((f"ged({g1.id}, {g2.id}) equals brute force",
                            ged == ged_bruteforce(g1, g2)))
        else:
            for g1, g2, ged in rng.sample(pairs, min(samples["replay"], len(pairs))):
                res = ged_exact(g1, g2)
                out.append((f"edit path {g1.id} -> {g2.id} replays to g2 at the label's cost",
                            res.cost == ged and apply_edit_path(g1, g2, res) == g2))
        if core.BACKEND != "python":
            for g1, g2, _ in rng.sample(pairs, min(samples["kernels"], len(pairs))):
                args = (g1.n, list(g1.labels), g1.adjacency_masks(), g2.n, list(g2.labels),
                        g2.adjacency_masks(), core._alphabet_size(g1, g2), core.DEFAULT_BUDGET)
                out.append((f"{core.BACKEND} kernel agrees with _astar_py on {g1.id}, {g2.id}",
                            core._kernel.solve(*args) == _astar_py.solve(*args)))
        return out
