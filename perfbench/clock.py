"""A clock that runs at the host's measured speed.

On a host whose cores are shared with other tenants, the same Python code
can run at half speed for tens of seconds at a time.  Wall time then says
more about the neighbours than about the package.  This clock samples the
host's speed every INTERVAL seconds, from a timer signal, by timing a fixed
probe of the same kinds of work the package does.  The probe never calls
the package, so a change to the package is not divided away.  Between
samples the clock advances at NOMINAL / (recent probe time), so one clock
second is the time the work would take at the reference speed.  The probe
itself does not count.

Everything runs in the main thread: the handler runs between bytecodes.
"""

from __future__ import annotations

import itertools
import signal
import statistics
from time import perf_counter

# Seconds one probe takes at the reference speed (the fast mode of an Intel
# Xeon host running Python 3.11).
NOMINAL = 0.48e-3
INTERVAL = 0.1
WINDOW = 3   # the rate follows the median of the last WINDOW probes

_WORDS = [tuple((i >> b) & 1 for b in range(i % 6)) for i in range(48)]
_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _starts(ys: tuple, xs: tuple) -> bool:
    i = 0
    while i < len(ys):
        if i >= len(xs) or ys[i] != xs[i]:
            return False
        i += 1
    return True


def _probe() -> int:
    """Slicing and comparing tuples, calling a small Python function, and
    building tuples with itertools.product under a generator expression:
    the three kinds of work the scans and the oracle spend their time on."""
    n = 0
    for a in _WORDS:
        for b in _WORDS:
            if len(a) <= len(b) and b[:len(a)] == a:
                n += 1
    for a in _WORDS[:30]:
        for b in _WORDS[:30]:
            n += _starts(a, b)
    for t in itertools.product(_PAIRS, repeat=4):
        n += all(t[i][0] == 0 for i in range(len(t)))
    return n


class SpeedClock:
    """``now()`` in reference-speed seconds, while started."""

    def __init__(self) -> None:
        self._n = 0.0
        self._t = perf_counter()
        self._rate = 1.0
        self._recent: list[float] = []
        self.ticks = 0

    def start(self) -> None:
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        while True:
            ticks = self.ticks
            value = self._n + (perf_counter() - self._t) * self._rate
            if ticks == self.ticks:  # no sample landed mid-read
                return value

    def _tick(self, *_) -> None:
        t0 = perf_counter()
        self._n += (t0 - self._t) * self._rate
        _probe()
        t1 = perf_counter()
        self._recent = self._recent[1 - WINDOW:] + [t1 - t0]
        self._rate = NOMINAL / statistics.median(self._recent)
        self._t = perf_counter()
        self.ticks += 1
