"""How fast the machine runs right now, for scaling timings to a fixed
reference speed.

On a shared machine the same work can take 1.5x as long from one moment
to the next, and the time of a fixed calibration burst moves with it.
The benchmark runs a burst at safe points between timed calls (at most
one every INTERVAL_S seconds) and keeps burst time out of every timing.
Each timing is scaled by REFERENCE_BURST_S over the mean time of the
bursts run during it, or of the last burst before it when none ran
during it.  The speed switches between a fast and a slow state that
each last seconds to minutes, so a scale taken over a whole run would
mix states that a median over its passes keeps apart.  Reported
seconds are thus seconds at the speed of a machine on which one burst
takes REFERENCE_BURST_S.

The burst uses numpy, scipy and the interpreter only, never corestate,
so a change to the package cannot change what it measures.
"""

import statistics
from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: Typical burst time on a 2-vCPU KVM guest (Xeon, 2.0 GHz), Python
#: 3.11, numpy 2.4, scipy 1.17; only ratios between runs matter.
REFERENCE_BURST_S = 0.004
#: Shortest time between two bursts.
INTERVAL_S = 0.25


class SpeedProbe:
    """Fixed bursts of sparse LU solves, small dense products and
    interpreted float parsing, the three kinds of work in corestate."""

    def __init__(self):
        n = 40
        lap = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(n * n, n * n))
        self._lu = spla.splu((lap + sp.eye(n * n)).tocsc())
        self._rhs = np.ones(n * n)
        self._dense = np.random.default_rng(0).standard_normal((100, 100))
        self._text = [repr(float(v)) for v in np.linspace(0.1, 1.0, 3000)]
        self.bursts = []      # (start, duration)
        self.spent = 0.0
        self._last = -float("inf")

    def burst(self):
        t0 = perf_counter()
        for _ in range(40):
            self._lu.solve(self._rhs)
        for _ in range(15):
            self._dense @ self._dense
        sum(float(s) for s in self._text)
        t1 = perf_counter()
        self.bursts.append((t0, t1 - t0))
        self.spent += t1 - t0
        self._last = t1

    def record(self, duration: float):
        """Count a burst timed in a child process as run now."""
        self.bursts.append((perf_counter(), duration))

    def tick(self):
        """Run a burst if the last one is INTERVAL_S seconds old."""
        if perf_counter() - self._last >= INTERVAL_S:
            self.burst()

    def factor(self, start: float, end: float) -> float:
        """Scale for a timing taken from `start` to `end`."""
        during = [d for t, d in self.bursts if start <= t <= end]
        if not during:
            during = [d for t, d in self.bursts if t < start][-1:]
        return REFERENCE_BURST_S / statistics.fmean(during)
