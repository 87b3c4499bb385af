"""Each gedraft module imports alone, in a fresh interpreter.

A cycle between modules (``model`` imports ``encoder`` and ``fusion``,
which take a ``ModelConfig`` without importing ``model``) shows only in
some import orders, and one test process imports every module in one
order. So each module gets an interpreter of its own.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
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
