"""Spans around the calls into gedraft's layers, recorded from outside.

The benchmark does not change gedraft: it swaps the names that callers look
up (a module attribute, or a name a module imported with ``from ... import``)
for wrappers that record a span and call the original. Spans are kept in
memory as (name, start, end, parent) rows, ``parent`` being the index of the
enclosing span or -1, and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
import types
from collections import Counter, defaultdict


class Tracer:
    """Spans as four parallel lists (name, start, end, parent index or -1),
    which hold no objects the garbage collector has to walk."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, after=None):
        """``fn`` recording one span per call; ``after(tracer, result, args)``
        runs on return to record counts."""
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(self, result, args)
            return result

        return traced

    def rows(self):
        return zip(self.names, self.starts, self.ends, self.parents)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.rows():
                fh.write(json.dumps(row) + "\n")

    # -- aggregation -------------------------------------------------------

    def durations(self, name) -> list[float]:
        return [e - s for n, s, e, _ in self.rows() if n == name]

    def total(self, name) -> float:
        return sum(self.durations(name))

    def self_time(self, name) -> float:
        """Summed duration of ``name`` spans minus their children's."""
        child = defaultdict(float)
        for _, s, e, p in self.rows():
            if p >= 0:
                child[p] += e - s
        return sum(
            e - s - child[i] for i, (n, s, e, _) in enumerate(self.rows()) if n == name
        )

    def under(self, name, ancestor) -> list[tuple]:
        """(start, end) of the ``name`` spans that run inside an ``ancestor``
        span."""
        out = []
        for n, s, e, p in self.rows():
            if n != name:
                continue
            while p >= 0 and self.names[p] != ancestor:
                p = self.parents[p]
            if p >= 0:
                out.append((s, e))
        return out


def _count_solve(tracer, result, _args):
    _cost, _assign, expansions, optimal = result
    tracer.counts["ged.expansions"] += expansions
    if not optimal:
        tracer.counts["ged.budget_drops"] += 1


def _count_written(tracer, _result, args):
    tracer.counts["dataset.bytes"] += os.path.getsize(args[1])


# (module, attribute, span name, counter). Modules that did
# ``from .x import name`` are listed as well, since their callers look the
# name up there.
TARGETS = (
    ("gedraft.synth", "ged_exact", "ged.ged_exact", None),
    ("gedraft.synth", "build_dataset", "synth.build_dataset", None),
    ("gedraft.dataset", "write_dataset", "dataset.write", _count_written),
    ("gedraft.dataset", "read_dataset", "dataset.read", None),
    ("gedraft.encoder", "encode_graphs", "encoder.encode_graphs", None),
    ("gedraft.resat", "encode_graphs", "encoder.encode_graphs", None),
    ("gedraft.fusion", "fuse", "fusion.fuse", None),
    ("gedraft.model", "regress", "model.regress", None),
    ("gedraft.model", "save_checkpoint", "model.save_checkpoint", None),
    ("gedraft.model", "load_checkpoint", "model.load_checkpoint", None),
    ("gedraft.training", "backward", "autodiff.backward", None),
    ("gedraft.resat", "backward", "autodiff.backward", None),
    ("gedraft.optim:Adam", "zero_grad", "optim.zero_grad", None),
    ("gedraft.optim:Adam", "step", "optim.adam_step", None),
    ("gedraft.training", "train", "training.train", None),
    ("gedraft.training", "validation_loss", "training.validation", None),
    ("gedraft.metrics", "evaluate", "metrics.evaluate", None),
    ("gedraft.metrics", "predict_pairs", "metrics.predict", None),
    ("gedraft.resat", "build_resat_dataset", "resat.build", None),
    ("gedraft.resat", "probe_embeddings", "resat.embed", None),
    ("gedraft.resat", "resat_probe", "resat.probe", None),
)


def _owner(spec):
    module, _, cls = spec.partition(":")
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the calls listed in TARGETS, and the search kernel, through
    ``tracer`` until the block exits."""
    saved = []
    try:
        for spec, attr, name, after in TARGETS:
            owner = _owner(spec)
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(name, fn, after))
        # ged_exact reads ``_kernel.solve`` through the core module
        core = importlib.import_module("gedraft.ged.core")
        kernel = core._kernel
        saved.append((core, "_kernel", kernel))
        core._kernel = types.SimpleNamespace(
            solve=tracer.wrap("ged.solve", kernel.solve, _count_solve)
        )
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
