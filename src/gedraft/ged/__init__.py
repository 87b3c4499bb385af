"""Exact graph edit distance under unit costs.

The search kernel has a compiled C implementation and a pure-Python
fallback with identical results; the compiled one is used whenever it was
built. ``BACKEND`` is ``"c"`` or ``"python"``. The pure-Python kernel
(``_astar_py``) is also the reference the tests compare the compiled one
against.

``ged_exact`` returns a ``GedResult``: the cost, the optimal node
assignment and the search's expansions. ``edit_path`` expands a result into
the explicit edit path and node mapping, and ``apply_edit_path`` replays it.
"""

from .core import (
    BACKEND,
    DEFAULT_BUDGET,
    EditOp,
    GedBudgetExceeded,
    GedResult,
    apply_edit_path,
    edit_path,
    ged_bruteforce,
    ged_exact,
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
    "edit_path",
    "ged_bruteforce",
    "ged_exact",
    "nged",
    "similarity",
]
