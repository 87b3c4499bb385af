"""Each gedraft module imports alone, in a fresh interpreter, every name
the benchmark reaches into exists, and every library name has a caller
outside the tests.

A cycle between modules (``model`` imports ``encoder`` and ``fusion``,
which take a ``ModelConfig`` without importing ``model``) shows only in
some import orders, and one test process imports every module in one
order. So each module gets an interpreter of its own.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = sorted(
    ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
    for path in (SRC / "gedraft").rglob("*.py")
)


def test_every_module_is_listed():
    expected = {"gedraft", "gedraft.encoder", "gedraft.fusion", "gedraft.model", "gedraft.ged.core"}
    assert expected <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_perfbench_seams_resolve(tmp_path):
    # perfbench/tracer.py (standard library only) wraps the (module,
    # attribute) pairs of its TARGETS and the kernel's solve; perfbench's own
    # tests replace synth._label_pair; perfbench/workloads.py calls the
    # functions bound below, in these shapes. Renaming any of them, or a
    # parameter, breaks the benchmark, whose suite is not part of this one.
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    seams = [(owner, attr) for owner, attr, _span, _count in tracer.TARGETS]
    seams.append(("gedraft.synth", "_label_pair"))
    missing = []
    for owner, attr in seams:
        module, _, cls = owner.partition(":")
        found = importlib.import_module(module)
        if not callable(getattr(getattr(found, cls) if cls else found, attr, None)):
            missing.append((owner, attr))
    assert tracer.TARGETS and not missing, missing
    assert callable(importlib.import_module("gedraft.ged.core")._kernel.solve)
    from gedraft import model, resat, synth
    from gedraft.ged import _astar_py, apply_edit_path, core, ged_exact
    from gedraft.graphs import Graph

    calls = [
        (synth.build_dataset, (), dict(n_graphs=16, n_min=5, n_max=8, p=0.4, alphabet_size=3,
                                       seed=1000)),
        (resat.build_resat_dataset, ([], 15, 0), {}),
        (resat.resat_probe, (None, None, 0), dict(epochs=25)),
        (model.save_checkpoint, ({}, None, "model.json"), {}),
        (core._kernel.solve, tuple(range(8)), {}),
        (_astar_py.solve, tuple(range(8)), {}),
    ]
    for function, args, kwargs in calls:
        inspect.signature(function).bind(*args, **kwargs)
    cfg = model.ModelConfig(alphabet_size=3, hidden=4, layers=1)
    model.save_checkpoint(model.init_params(cfg), cfg, tmp_path / "m.json")
    assert len(model.load_checkpoint(tmp_path / "m.json")) == 3
    # gen-mid's replay check: the label's cost, and its edit path replayed
    g1 = Graph.make("a", [0, 1, 2], [(0, 1), (1, 2)])
    g2 = Graph.make("b", [2, 1], [(0, 1)])
    res = ged_exact(g1, g2)
    assert res.cost == 2 and apply_edit_path(g1, g2, res) == g2


def test_the_compiled_kernel_is_checked_by_the_compiled_recount(c_kernel):
    # a build that lost edit_count would check every label in Python
    from gedraft.ged import core

    assert core.BACKEND == "c" and core._kernel is c_kernel
    assert core._recount is c_kernel.edit_count


def test_a_build_without_the_kernel_recounts_in_python(monkeypatch):
    monkeypatch.setitem(sys.modules, "gedraft.ged._astar", None)  # import fails
    spec = importlib.util.find_spec("gedraft.ged.core")
    core = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(core)
    assert core.BACKEND == "python" and core._recount is core._edit_count


def _definitions(tree):
    """(name, statement) of each top-level function, class and constant,
    and of each method."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            targets = [stmt.target]
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [stmt]
        else:
            continue
        for target in targets:
            yield target.id if isinstance(target, ast.Name) else target.name, stmt
        if isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, item


def test_every_library_name_has_a_caller_outside_tests():
    # a name that only the tests reach belongs with them (as permute and
    # check_extraction do, in tests/graph_reference.py): the library is what
    # the commands and the benchmark run
    sources = {path: path.read_text().splitlines()
               for folder in (SRC, ROOT / "perfbench", ROOT / "benchmarks")
               for path in sorted(folder.rglob("*.py"))}
    uncalled = []
    for path in sorted((SRC / "gedraft").rglob("*.py")):
        for name, stmt in _definitions(ast.parse("\n".join(sources[path]))):
            if name.startswith("__") and name.endswith("__"):
                continue  # the language's (__all__, __init__), not the library's
            first, last = stmt.lineno, stmt.end_lineno
            word = re.compile(rf"(?<!\w){re.escape(name)}(?!\w)")
            elsewhere = (
                line for other, lines in sources.items() for k, line in enumerate(lines, 1)
                if not (other == path and first <= k <= last)
            )
            if not any(word.search(line) for line in elsewhere):
                uncalled.append(f"{path.relative_to(SRC)}: {name}")
    assert not uncalled, uncalled
