"""The machine's current speed, from a fixed loop that does not use gedraft.

The speed of a shared virtual machine drifts: the same pure-Python loop can
take 50% longer in one 15-s window than in the next. That drift is the same
for every version of the program, so the benchmark scales its times by it.
A run takes probes between its units of work, never inside them. Each time it
reports is measured seconds times (``REF_PROBE_S`` / mean probe of the same
phase) ** exponent, so that it reads as seconds at a fixed reference speed.
The mean, not the median: a time is a sum over the phase, slow spells
included. The exponent is how strongly a workload's time follows the probe.
The unscaled times are kept in the run's details.
"""

from __future__ import annotations

import heapq
import statistics
import time

import numpy as np

# median probe on the reference machine (see README.md); only scales results
REF_PROBE_S = 0.016
PY_ITERS = 12_000
NP_ITERS = 1_200


def probe() -> float:
    """Seconds for one pass of a fixed loop: heap and dict work in the
    interpreter, then small dense NumPy products, the two kinds of work
    gedraft's layers do."""
    t0 = time.perf_counter()
    heap, counts, x = [], {}, 12345
    for i in range(PY_ITERS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x, i))
        counts[x & 1023] = counts.get(x & 1023, 0) + 1
        if len(heap) > 64:
            heapq.heappop(heap)
    a = np.full((16, 32), 1.0)
    w = np.full((32, 32), 0.01)
    for _ in range(NP_ITERS):
        a = np.maximum(a @ w, 0.0) * 0.5 + a * 0.5
    return time.perf_counter() - t0


class Speed:
    """The probes of one phase of a run."""

    def __init__(self):
        self.probes: list[float] = []

    def sample(self) -> None:
        self.probes.append(probe())

    def scale(self, exponent: float) -> float:
        """Factor from measured seconds to seconds at the reference speed."""
        return (REF_PROBE_S / statistics.fmean(self.probes)) ** exponent
