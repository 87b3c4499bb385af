import atexit
import importlib.util
import os
import shlex
import shutil
import sys
import sysconfig
import tempfile
from pathlib import Path

# The model's matrices are a few dozen rows wide, so BLAS threads cost more
# than they save: one criterion-7 training run takes 2.9 s on one thread and
# 4.1 s on two. One thread also keeps the trained weights, and so the
# acceptance outcomes, independent of the machine's core count. This must be
# set before numpy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402

KERNEL_SOURCE = Path(__file__).resolve().parents[1] / "src" / "gedraft" / "ged" / "_astar.c"


def _compiler_missing():
    """Why the kernel cannot be compiled here, or None if a C compiler exists."""
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    if not shlex.split(cc) or shutil.which(shlex.split(cc)[0]) is None:
        return f"no C compiler ({cc!r}) to build the kernel with"
    return None


def _build_c_kernel():
    """Compile ``_astar.c`` into a temporary directory and load it.

    Returns the module, a string if there is no compiler, or the exception
    the build raised.
    """
    missing = _compiler_missing()
    if missing:
        return missing
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext

    out = Path(tempfile.mkdtemp(prefix="gedraft-kernel-"))
    atexit.register(shutil.rmtree, out, ignore_errors=True)
    name = "gedraft.ged._astar"
    cmd = build_ext(Distribution({"ext_modules": [Extension(name, [str(KERNEL_SOURCE)])]}))
    cmd.build_lib, cmd.build_temp = str(out), str(out / "tmp")
    try:
        cmd.ensure_finalized()
        cmd.run()
    except Exception as exc:  # reported by the tests that need the kernel
        return exc
    spec = importlib.util.spec_from_file_location(name, cmd.get_ext_fullpath(name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Build the compiled kernel from the current source before anything imports
# gedraft, so the whole suite runs on it (labeling the acceptance datasets on
# the pure-Python kernel is about 30x slower) and the cross-checks in
# test_ged.py test this source. Registering the module under its package
# name makes ``gedraft.ged`` pick it up at import.
C_KERNEL = _build_c_kernel()
if not isinstance(C_KERNEL, (str, Exception)):
    sys.modules["gedraft.ged._astar"] = C_KERNEL

from gedraft.synth import build_dataset  # noqa: E402


@pytest.fixture(scope="session")
def c_kernel():
    """The compiled kernel, built from the source tree with setuptools."""
    if isinstance(C_KERNEL, str):
        pytest.skip(C_KERNEL)
    if isinstance(C_KERNEL, Exception):
        pytest.fail(f"building the kernel failed: {C_KERNEL!r}")
    return C_KERNEL


@pytest.fixture(scope="session")
def tiny_dataset():
    """Small labeled dataset shared by training/eval/probing tests."""
    ds, report = build_dataset(
        n_graphs=30,
        n_min=4,
        n_max=6,
        p=0.4,
        alphabet_size=3,
        seed=7,
        pairs_per_graph=4,
    )
    assert report.dropped_budget == 0
    assert not ds.validate()
    return ds
