"""Machine speed probe, used to rescale wall times to a reference speed.

On a shared machine the speed of one core drifts by up to 2x within a
minute, because other tenants contend for it.  Wall times of the same work
then spread far wider than any change worth detecting.  The probe measures
that drift: it times ``unit``, a fixed piece of exact arithmetic written
here, so that no change to rgdcheck alters it.  Like rgdcheck's kernel it
multiplies small matrices of dict-of-Fraction polynomials through slotted
scalar objects, so contention slows both alike.

``SpeedProbe`` runs ``unit`` from a SIGALRM timer while a pass runs.  A
pass's speed factor is ``REF_UNIT_S`` over the mean unit time during the
pass, leaving out the slowest twentieth of the ticks, and a rescaled time is
wall time, minus the time spent in the probe, times that factor: the time
the pass would take on a machine where one unit takes ``REF_UNIT_S``.  The
garbage collector is off while a unit runs, so a collection of the measured
program's heap is neither counted as probe time nor taken out of the
program's time.

The mean, not the median: the core's speed switches between levels within a
pass, and a pass's time follows the mean of its slowdown.  On a 2-vCPU Xeon,
over 6-8 runs of three passes each, the median pass time rescaled by the mean
spread 0.04-0.07 (IQR / median), by the mean without the slowest twentieth
0.03-0.05, and by the median unit time 0.13-0.20; unscaled it spread 0.27-0.29.

Process CPU time is no substitute: where the hypervisor shares the cores,
it drifts with the wall time.  Over five runs on a 2-vCPU Xeon, the median
pass's CPU time spread 0.14-0.29 (IQR / median), as its wall time did.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from array import array
from fractions import Fraction

# unit time on an uncontended 2-vCPU Intel Xeon with Python 3.11.7
REF_UNIT_S = 250e-6
TICK_S = 0.025


class _Scalar:
    __slots__ = ("base", "ext")

    def __init__(self, base, ext=0):
        self.base = Fraction(base)
        self.ext = Fraction(ext)

    def __mul__(self, other):
        return _Scalar(
            self.base * other.base - self.ext * other.ext,
            self.base * other.ext + self.ext * other.base,
        )

    def __add__(self, other):
        return _Scalar(self.base + other.base, self.ext + other.ext)

    def is_zero(self):
        return self.base == 0 and self.ext == 0


def _poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            prod = c1 * c2
            cur = out.get(e)
            out[e] = prod if cur is None else cur + prod
    return {e: c for e, c in out.items() if not c.is_zero()}


_N = 2
_MATRIX = [
    [
        {0: _Scalar(i + 1, j), 4: _Scalar(1, 2)} if (i + j) % 2 == 0 else {-4: _Scalar(j - i, 1)}
        for j in range(_N)
    ]
    for i in range(_N)
]


def unit():
    """One fixed square of a 2x2 matrix of Laurent polynomials."""
    out = []
    for i in range(_N):
        row = []
        for j in range(_N):
            acc = {}
            for k in range(_N):
                for e, c in _poly_mul(_MATRIX[i][k], _MATRIX[k][j]).items():
                    cur = acc.get(e)
                    acc[e] = c if cur is None else cur + c
            row.append(acc)
        out.append(row)
    return out


def timed_unit() -> float:
    """The time one unit takes, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        unit()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Context manager: times one unit every TICK_S seconds of wall time."""

    def __init__(self):
        self.durations = array("d")
        self._previous = None

    def _tick(self, signum, frame):
        self.durations.append(timed_unit())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> int:
        return len(self.durations)

    def spent(self, since: int) -> float:
        """Time spent in the probe since a mark."""
        return sum(self.durations[since:])

    def factor(self, since: int) -> float:
        """Speed factor over the ticks since a mark.  With no tick since
        then (a window shorter than TICK_S), units are timed now."""
        ticks = sorted(self.durations[since:]) or [timed_unit() for _ in range(5)]
        kept = ticks[: len(ticks) - len(ticks) // 20]
        return REF_UNIT_S / statistics.fmean(kept)
