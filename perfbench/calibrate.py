"""Machine-speed probe: a fixed pure-Python kernel timed between operations.

The benchmark runs on shared machines whose speed drifts by 10-30% over
minutes.  Every reported time is scaled by

    PROBE_NOMINAL_MS / (median probe time of the run, in ms)

so it reads as the time the operation would take on a machine where the
probe takes PROBE_NOMINAL_MS.  The probe uses nothing from `exact_xformer`,
so a change to the library moves the operations and not the probe.  Its two
halves follow the library's two cost profiles: wide-integer gcd and product
(the thousands-of-bits `Rat` operands of budgeted mode) and many small
`Fraction` and int operations (the narrow `Rat` and `PFloat` work of the other
modes).  The raw wall-clock figures go to the run's JSON file beside the
scaled ones.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from fractions import Fraction

# About the probe's time on the 2-vCPU machine the bounds were set on, so
# scaled times stay close to that machine's wall-clock times.
PROBE_NOMINAL_MS = 7.0
# Least operation time between two probes in a timed phase.
PROBE_EVERY_S = 0.1

_WIDE = [random.Random(f"probe:{k}").getrandbits(4000) | 1 for k in range(8)]


def _kernel() -> int:
    acc = 0
    for i in range(8):
        x, y = _WIDE[i], _WIDE[(i + 3) % 8]
        acc ^= math.gcd(x * y + 1, y * y + 3)
    s = 0
    for i in range(20000):
        s += (i * 7) % 13
    term, total, x = Fraction(1), Fraction(0), Fraction(7, 5)
    for k in range(1, 60):
        term = term * x / k
        total += term
    u = Fraction(0)
    for k in range(1, 300):
        u = u * Fraction(1, 2) + Fraction(k % 7, 8)
    return acc ^ s ^ total.denominator ^ u.numerator


class Probe:
    """Probe times of one phase; `scale()` turns its raw times into scaled ones."""

    def __init__(self):
        self.times: list[float] = []
        self._last = time.perf_counter()

    def take(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            _kernel()
            self._last = time.perf_counter()
            self.times.append(self._last - t0)

    def maybe(self) -> None:
        """Probe if PROBE_EVERY_S has passed since the last probe."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.take()

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.times)

    def scale(self) -> float:
        return PROBE_NOMINAL_MS / self.median_ms()
