"""A clock that reads host seconds rescaled to a reference CPU speed.

On a shared host the same pure-Python work runs up to twice as fast in
one second as in the next: the vCPU shares its core with other tenants,
and that contention does not show as steal or in ``process_time``.  It
comes and goes in spells from a fraction of a second to minutes, so the
wall time of identical passes minutes apart spreads by 20-40%.

``Clock`` measures the host's speed while the work runs.  Every
``INTERVAL`` seconds a SIGALRM handler runs a fixed probe (interpreted
gate evaluation through slotted objects, a call and a dict lookup, the
mix the ATPG engines and simulators spend their time in) and times it.
Each stretch of work between two probes is rescaled by how long the
probe took around it:

    calibrated seconds = sum over stretches of  dt * REF_PROBE_S / probe

so a stretch that ran at half speed counts half its wall time.  The
probes' own time is left out.  On an uncontended core of the host this
benchmark was tuned on (a 2-vCPU x86-64 VM, CPython 3.11) the probe
takes about ``REF_PROBE_S``, so calibrated seconds read close to wall
seconds there; the raw wall time is kept alongside.

``paused()`` takes a stretch out of the reading, as checks between the
timed operations are.  Only one clock may run at a time in a process
(it owns SIGALRM).
"""

from __future__ import annotations

import bisect
import contextlib
import random
import signal
import statistics
import time
from typing import Iterator, List, Tuple

INTERVAL = 0.025
PROBE_GATES = 1200
REF_PROBE_S = 0.00019

_SIZE = 256
_rng = random.Random(7)
_TABLE = {(a, b): (a * b + 1) % 5 for a in range(5) for b in range(5)}


class _Gate:
    __slots__ = ("kind", "ins")

    def __init__(self, kind: int, ins: Tuple[int, int]) -> None:
        self.kind = kind
        self.ins = ins


_GATES = [
    _Gate(_rng.randrange(3), (_rng.randrange(_SIZE), _rng.randrange(_SIZE)))
    for _ in range(_SIZE)
]
_VALUES = [_rng.randrange(5) for _ in range(_SIZE)]


def _evaluate(kind: int, a: int, b: int) -> int:
    return _TABLE[a, b] if kind else (a + b) % 5


def probe() -> float:
    """Seconds one fixed batch of gate evaluations takes right now."""
    gates, values, evaluate = _GATES, _VALUES, _evaluate
    started = time.perf_counter()
    for k in range(PROBE_GATES):
        gate = gates[k & 255]
        a, b = gate.ins
        values[k & 255] = evaluate(gate.kind, values[a], values[b])
    return time.perf_counter() - started


class Clock:
    """Start, stop, then read ``seconds`` (calibrated) and ``wall``.

    ``calibrated(t)`` maps any ``time.perf_counter()`` reading taken
    while the clock ran to calibrated seconds since its start, so spans
    recorded in between can be rescaled too.
    """

    def __init__(self) -> None:
        # One (start, end, duration, paused) per probe, in time order;
        # ``paused`` takes the stretch after the probe out of the reading.
        self._probes: List[Tuple[float, float, float, bool]] = []
        self._paused = False
        self._starts: List[float] = []
        self._offsets: List[float] = []
        self._rates: List[float] = []
        self.started = self.stopped = 0.0
        self._paused_wall = 0.0

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        duration = probe()
        self._probes.append(
            (start, time.perf_counter(), duration, self._paused)
        )

    def start(self) -> "Clock":
        if signal.getsignal(signal.SIGALRM) not in (signal.SIG_DFL, None):
            raise RuntimeError("another clock owns SIGALRM")
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        self.started = self._probes[0][1]
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def stop(self) -> "Clock":
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.stopped = time.perf_counter()
        self._sample()
        self._integrate()
        return self

    def __enter__(self) -> "Clock":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._paused = True
        self._sample()
        paused = time.perf_counter()
        try:
            yield
        finally:
            self._paused_wall += time.perf_counter() - paused
            self._paused = False
            self._sample()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def _integrate(self) -> None:
        """Piecewise-linear calibrated time over the work stretches."""
        probes = self._probes
        durations = [probe[2] for probe in probes]
        self._starts, self._offsets, self._rates = [], [], []
        total = 0.0
        for k in range(1, len(probes)):
            begin, end = probes[k - 1][1], probes[k][0]
            # The probes on either side of the stretch and the next one:
            # the median ignores a probe the host preempted.
            around = durations[k - 1 : k + 2]
            paused = probes[k - 1][3]
            rate = 0.0 if paused else REF_PROBE_S / statistics.median(around)
            self._starts.append(begin)
            self._offsets.append(total)
            self._rates.append(rate)
            total += (end - begin) * rate
        self._total = total
        self._ends = [probe[0] for probe in probes[1:]]

    def calibrated(self, t: float) -> float:
        k = bisect.bisect_right(self._starts, t) - 1
        if k < 0:
            return 0.0
        return self._offsets[k] + self._rates[k] * (
            min(t, self._ends[k]) - self._starts[k]
        )

    @property
    def seconds(self) -> float:
        """Calibrated seconds between start and stop."""
        return self._total

    @property
    def wall(self) -> float:
        """Wall seconds between start and stop, less the paused ones."""
        return self.stopped - self.started - self._paused_wall
