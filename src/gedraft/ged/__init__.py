"""Exact graph edit distance under unit costs.

The search kernel has a compiled C implementation and a pure-Python
fallback with identical results; the compiled one is used whenever it was
built. ``BACKEND`` is ``"c"`` or ``"python"``. The pure-Python kernel
(``_astar_py``) is also the reference the tests compare the compiled one
against.
"""

from .core import (
    BACKEND,
    DEFAULT_BUDGET,
    EditOp,
    GedBudgetExceeded,
    GedResult,
    apply_edit_path,
    ged_bruteforce,
    ged_exact,
    lower_bound_labels,
    nged,
    similarity,
)

__all__ = [
    "BACKEND",
    "DEFAULT_BUDGET",
    "EditOp",
    "GedBudgetExceeded",
    "GedResult",
    "apply_edit_path",
    "ged_bruteforce",
    "ged_exact",
    "lower_bound_labels",
    "nged",
    "similarity",
]
