"""The host's speed, sampled with a fixed piece of work.

The benchmark runs on a few cores of a shared host whose speed drifts by
a third and more, over seconds and over minutes (README.md, "Host
speed").  A whole 36-second run can fall in a slow stretch, so no
statistic over one run's passes cancels the drift.  Every timed region
is therefore accompanied by samples of one fixed piece of exact
elimination, of the kind the program spends its time in: Fraction
elimination and elimination mod a 61-bit prime, with the same interpreter
objects (Fraction, int, list, dict).  Times are reported scaled to a host
on which one sample takes REF_S: seconds measured times REF_S over the
mean sample time of the same region.  The work never changes, so a change
to the program moves the scaled time as it moves the measured one.
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction

# The median over 292 passes of the mean sample time, on the host the
# README figures come from (2 vCPUs of an Intel Xeon, Python 3.11.7), so
# that scaled times read close to the seconds measured there.
REF_S = 0.00137
# One sample per EVERY_S of measured time, so that the samples weigh each
# moment of a region as its time does.
EVERY_S = 0.02

_N = 7
_Q = [[(7 * i * i + 3 * j * j + i * j + 1) % 11 - 5 for j in range(_N)] for i in range(_N)]
_P = 2**61 - 1
_M = 12


def work():
    """Fraction elimination of a fixed 7x7 matrix, then of a 12x12 one mod P."""
    rows = [[Fraction(x) for x in r] for r in _Q]
    for c in range(_N):
        piv = next(i for i in range(c, _N) if rows[i][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        for i in range(c + 1, _N):
            f = rows[i][c] / rows[c][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    m = {(i, j): (i * 31 + j * 17 + 5) ** 3 % _P for i in range(_M) for j in range(_M)}
    for c in range(_M):
        inv = pow(m[c, c] or 1, -1, _P)
        for i in range(c + 1, _M):
            f = m[i, c] * inv % _P
            for j in range(c, _M):
                m[i, j] = (m[i, j] - f * m[c, j]) % _P
    return rows[-1][-1], m[_M - 1, _M - 1]


def sample() -> float:
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


class Pace:
    """Samples taken along one timed region, one per EVERY_S of it."""

    def __init__(self):
        self.samples = []

    def keep_up(self, measured: float):
        """Sample until the samples cover ``measured`` seconds of timed work."""
        while len(self.samples) * EVERY_S <= measured:
            self.samples.append(sample())

    def scale(self) -> float:
        """Factor from measured seconds to seconds at REF_S per sample.

        The mean, as the region's time is a sum over its moments: over 30
        runs of the three workloads the mean gave the scaled pass times the
        narrowest spread, narrower than the median or a trimmed mean.
        """
        return REF_S / statistics.fmean(self.samples)
