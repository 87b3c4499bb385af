"""The ``gedraft`` command; ``python -m gedraft`` runs it too.

The model's matrices are a few dozen rows wide, so BLAS threads cost more
than they save: one criterion-7 training takes 2.9 s on one thread and
4.1 s on two. The thread count also changes the trained weights' low-order
bits. So unless the environment already sets one of ``BLAS_THREAD_VARS``,
the command sets all of them to 1, before anything imports NumPy.
"""

from __future__ import annotations

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    # a user's setting of any one of them is left whole: OpenBLAS reads
    # OMP_NUM_THREADS only when OPENBLAS_NUM_THREADS is unset
    if not any(var in os.environ for var in BLAS_THREAD_VARS):
        for var in BLAS_THREAD_VARS:
            os.environ[var] = "1"
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
