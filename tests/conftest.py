import atexit
import importlib.util
import os
import shlex
import shutil
import subprocess
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

ROOT = Path(__file__).resolve().parents[1]


def _extensions():
    """``setup.py``'s list of (module, source, extra compile flags)."""
    spec = importlib.util.spec_from_file_location("gedraft_setup", ROOT / "setup.py")
    setup_py = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(setup_py)  # runs setup() only as __main__
    return setup_py.EXTENSIONS


def _compiler():
    return os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"


def _compiler_missing():
    """Why the kernels cannot be compiled here, or None if a C compiler exists."""
    cc = _compiler()
    if not shlex.split(cc) or shutil.which(shlex.split(cc)[0]) is None:
        return f"no C compiler ({cc!r}) to build the kernels with"
    return None


def _strict_flags():
    """``-Wall -Werror`` when the compiler is gcc or clang, else nothing.

    The suite builds the kernels strictly so that a new warning fails it;
    ``setup.py`` stays lenient, so a user's build still falls back to pure
    Python and NumPy rather than failing on a compiler's new warning.
    """
    try:
        version = subprocess.run(
            [*shlex.split(_compiler()), "--version"], capture_output=True, text=True, timeout=30
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return []
    # gcc run as ``cc`` names itself cc, but prints the FSF's copyright line
    if "clang" in version or "gcc" in version or "Free Software Foundation" in version:
        return ["-Wall", "-Werror"]
    return []


def _build_c_kernels():
    """Compile every extension of ``setup.py``, with its flags and the strict
    ones, into a temporary directory and load them.

    Returns a dict of the modules by name, a string if there is no
    compiler, or the exception the build raised.
    """
    missing = _compiler_missing()
    if missing:
        return missing
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext

    out = Path(tempfile.mkdtemp(prefix="gedraft-kernel-"))
    atexit.register(shutil.rmtree, out, ignore_errors=True)
    strict = _strict_flags()
    exts = [
        Extension(name, [str(ROOT / source)], extra_compile_args=flags + strict)
        for name, source, flags in _extensions()
    ]
    cmd = build_ext(Distribution({"ext_modules": exts}))
    cmd.build_lib, cmd.build_temp = str(out), str(out / "tmp")
    try:
        cmd.ensure_finalized()
        cmd.run()
    except Exception as exc:  # reported by the tests that need the kernels
        return exc
    modules = {}
    for ext in exts:
        spec = importlib.util.spec_from_file_location(ext.name, cmd.get_ext_fullpath(ext.name))
        modules[ext.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(modules[ext.name])
    return modules


# Build the compiled kernels from the current source before anything imports
# gedraft, so the whole suite runs on them (labeling the acceptance datasets
# on the pure-Python GED kernel is about 30x slower) and the cross-checks in
# test_ged.py and test_optim.py test this source. Registering each module
# under its package name makes gedraft pick it up at import.
C_KERNELS = _build_c_kernels()
if isinstance(C_KERNELS, dict):
    sys.modules.update(C_KERNELS)

from gedraft.synth import build_dataset  # noqa: E402


def _c_module(name):
    if isinstance(C_KERNELS, str):
        pytest.skip(C_KERNELS)
    if isinstance(C_KERNELS, Exception):
        pytest.fail(f"building the kernels failed: {C_KERNELS!r}")
    return C_KERNELS[name]


@pytest.fixture(scope="session")
def c_kernel():
    """The compiled GED kernel, built from the source tree with setuptools."""
    return _c_module("gedraft.ged._astar")


@pytest.fixture(scope="session")
def c_adam():
    """The compiled Adam step's module, built from the source tree."""
    return _c_module("gedraft._adam")


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
