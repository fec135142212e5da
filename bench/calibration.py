"""A fixed reference workload that measures how fast the machine is right now.

On a shared host the same solver work takes from 1x to 2x as long,
depending on what other tenants run, and one regime can last longer than
a whole run.  :class:`Reference` runs a small fixed workload between solves
(at most every ``INTERVAL`` seconds) and pairs every solve with the
reference time measured around it.  A solve time divided by that reference
time is in units of the reference workload ("cal") and moves much less with
the host's load than the solve time itself.

The kernel never touches ``rlbfgsb``: a change to the solver cannot change
it.  It does the kind of work the solver's time is made of: small product
vectors (150 box coordinates plus a 3x3 matrix) as short-lived objects,
inner products and axpy updates, dominated by interpreter and numpy call
overhead.  Of the kernels tried, this one tracked the solver best: over
30 windows of a 240 s run on a shared host, the raw pass time of ``box``
spread 29% (quartile distance over median) and its ratio to this kernel 4%.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass

import numpy as np

INTERVAL = 0.05  # seconds between reference measurements
_SWEEPS = 24  # about 2.5 ms per measurement on a 2.1 GHz x86 core


@dataclass
class _Tangent:
    box: np.ndarray
    manifold: np.ndarray

    def __add__(self, other: "_Tangent") -> "_Tangent":
        return _Tangent(self.box + other.box, self.manifold + other.manifold)

    def __mul__(self, a: float) -> "_Tangent":
        return _Tangent(a * self.box, a * self.manifold)

    __rmul__ = __mul__


def _inner(x: _Tangent, y: _Tangent) -> float:
    return float(np.dot(x.box, y.box)) + float(np.sum(x.manifold * y.manifold))


def _pairs() -> list[tuple[_Tangent, _Tangent]]:
    rng = np.random.default_rng(0)
    return [
        tuple(_Tangent(rng.standard_normal(150), rng.standard_normal((3, 3))) for _ in "sy")
        for _ in range(5)
    ]


def kernel(pairs: list[tuple[_Tangent, _Tangent]], sweeps: int = _SWEEPS) -> float:
    """Two-loop-like sweeps of small product vectors: the solver's kind of work."""
    q = _Tangent(np.ones(150), np.ones((3, 3)))
    acc = 0.0
    for _ in range(sweeps):
        for s, y in pairs:
            a = _inner(s, q) / (_inner(s, y) + 10.0)
            q = q + (-a) * y
            acc += a
    return acc


class Reference:
    """Reference times on the run's clock, and their pairing with solves."""

    def __init__(self):
        self.at: list[float] = []  # when each measurement ended
        self.ms: list[float] = []
        self._pairs = _pairs()
        kernel(self._pairs)  # warm-up, not recorded

    def measure(self) -> None:
        t0 = time.perf_counter()
        kernel(self._pairs)
        t1 = time.perf_counter()
        self.at.append(t1)
        self.ms.append((t1 - t0) * 1e3)

    def maybe(self) -> None:
        """Measure unless the last measurement is recent enough."""
        if not self.at or time.perf_counter() - self.at[-1] >= INTERVAL:
            self.measure()

    def around(self, start: float, end: float) -> float:
        """Mean of the last measurement before ``start`` and the first after ``end``."""
        before = bisect.bisect_right(self.at, start) - 1
        after = bisect.bisect_left(self.at, end)
        picks = [self.ms[i] for i in (before, after) if 0 <= i < len(self.ms)]
        return sum(picks) / len(picks)
