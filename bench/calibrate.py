"""A fixed reference load that measures the host's current speed.

The machine the benchmark runs on is shared: its speed swings by up to 2x,
over anything from a second to minutes, so a pass, or a whole run, can fall
into a slow spell.  The worker therefore samples the host's speed while it
times: every ``PERIOD_S`` a timer signal runs a short fixed load in the
worker's own thread and times it.  A pass's time, less the samples' own
time, is scaled by the mean of ``REFERENCE_S / sample time``: it is the time
the pass would have taken with the host at its reference speed.  Set-up,
too short to sample, is scaled by ``measure()`` taken right after it.

The load uses only Python and numpy, never dfalg, so a change to dfalg does
not move it.  It mixes the kinds of work dfalg's kernels do: interpreted
loops over tuples and dicts, Python int and Fraction arithmetic, and
object-dtype numpy products.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

import numpy as np

# The load's time on the reference host (a 2-core x86_64 KVM guest, Intel
# Xeon, Python 3.11.7, numpy 2.4.6) outside its slow spells.  A constant:
# changing it rescales every reported time.
REFERENCE_S = 0.0018
PERIOD_S = 0.1  # samples cost about 2% of a pass
MEASURE_LOADS = 20  # measure() takes about 40 ms at the reference speed

_N = 8
_INTS = np.array([[(i * 7 + j * 3) % 11 - 5 for j in range(_N)] for i in range(_N)],
                 dtype=object)
_FRACS = [Fraction(i % 13 - 6, i % 7 + 1) for i in range(64)]


def _load():
    acc = 0
    for i in range(40):
        m = _INTS.dot(_INTS)
        acc += int(m[i % _N, (i * 5) % _N])
    table = {}
    for i in range(2_000):
        key = (i % 31, i % 17, i % 5)
        table[key] = table.get(key, 0) + (i * i) % 97 - acc % 3
    s = Fraction(0)
    for i in range(250):
        s += _FRACS[i % 64] * _FRACS[(i * 7) % 64]
    return acc, len(table), s


for _ in range(3):
    _load()  # first-use costs (numpy's object loops, Fraction) stay out


class Sampler:
    """Samples the load every PERIOD_S while active (a context manager).

    ``held_s`` is the time spent in the samples, to be taken off the timed
    region; ``speed()`` is the mean of REFERENCE_S / sample time.
    """

    def __init__(self):
        self.samples = []
        self.held_s = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _load()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.held_s += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def speed(self):
        return sum(REFERENCE_S / s for s in self.samples) / len(self.samples)


def measure():
    """The host's speed now, from MEASURE_LOADS back-to-back loads."""
    t = time.perf_counter()
    for _ in range(MEASURE_LOADS):
        _load()
    return REFERENCE_S * MEASURE_LOADS / (time.perf_counter() - t)
