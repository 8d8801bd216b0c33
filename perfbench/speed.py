"""A machine-speed probe, so timings taken on a shared host compare.

On a host whose cores are shared with other tenants the interpreter's
speed drifts by a third within seconds, and CPU time tracks wall time,
so neither separates a slower program from a busier machine. While
items run, a timer signal every ``INTERVAL_S`` runs one fixed slice of
interpreter work (``_probe``: method calls, attribute and tuple reads,
no allocation the garbage collector tracks) twice: once to reload the
caches the interrupted item may have evicted, and once timed, so a
program that thrashes the caches does not slow the probe down with it.
The probe's duration around an item tells how fast the machine ran the
item, and ``SpeedProbe.scaled`` rescales the item's wall time to a
machine on which one probe takes ``NOMINAL_PROBE_S``. It divides by the
median of the recent probes, so one probe stretched by a descheduling
does not move the neighbouring items. The time of both probe runs is
subtracted from the item's; they cost about 1% of the run.
"""
from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.005
# the probe's duration on the development host when idle
NOMINAL_PROBE_S = 30e-6
# a short item is scaled by the median of at least this many recent probes
WINDOW = 64


class _Pairs:
    __slots__ = ("rep",)

    def __init__(self):
        self.rep = tuple(i // 2 for i in range(64))

    def related(self, s: int, t: int) -> bool:
        return self.rep[s] == self.rep[t]


_PAIRS = _Pairs()


def _probe() -> int:
    pairs = _PAIRS
    n = 0
    for s in range(16):
        for t in range(16):
            if pairs.related(s, t ^ 1):
                n += 1
    return n


class SpeedProbe:
    """Context manager that samples the probe on a timer signal."""

    def __init__(self):
        self.durations: list[float] = []
        # the whole time of each sample, warm-up run included
        self.spent: list[float] = []
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        t0 = perf_counter()
        _probe()
        t1 = perf_counter()
        _probe()
        t2 = perf_counter()
        self.durations.append(t2 - t1)
        self.spent.append(t2 - t0)

    def __enter__(self) -> "SpeedProbe":
        for _ in range(8):  # so the first items have a window to scale by
            self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        """Position in the probe record; take one before and after an item."""
        return len(self.durations)

    def scaled(self, wall: float, start: int, end: int) -> float:
        """Wall time of an item run between two marks, less the probes it
        contains, at the nominal machine speed."""
        own = self.spent[start:end]
        window = self.durations[max(0, min(start, end - WINDOW)):end]
        return (wall - sum(own)) * NOMINAL_PROBE_S / statistics.median(window)

    def median_s(self) -> float:
        return statistics.median(self.durations)
