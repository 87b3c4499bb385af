"""Exact graph edit distance under unit costs.

The search kernel has a compiled C implementation and a pure-Python
fallback with identical results; the compiled one is preferred at import
time. ``BACKEND`` is ``"c"`` or ``"python"``; set ``GEDRAFT_PURE=1`` to
force the pure-Python kernel.
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
