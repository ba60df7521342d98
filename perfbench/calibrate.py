"""Host-speed calibration.

On a shared machine the same pure-Python work runs at speeds that drift
by ±20% from one minute to the next, for every workload at once.  A run
measures that drift while it runs: a SIGALRM every ``PERIOD`` seconds of
wall time interrupts whatever runs and times one fixed *slice* of work
shaped like the package's term walks (recursive descent over nested
tuples, rebuilding them, with dict lookups).  A slice runs with the
garbage collector off and frees all it allocates, so the collector's
counts are the same after it as before, and the package's collections
fall where they would without calibration.  The time spent in slices
is taken out of every measured interval (``clock``), and the benchmark
multiplies the times it reports by ``REFERENCE`` over the median slice
time, so they read as seconds at the reference speed, the speed at
which one slice takes ``REFERENCE`` seconds.  A change to the package
does not touch the slice, so a faster package still shows as
proportionally smaller times.
"""
from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

PERIOD = 0.25
# Median slice time on a shared 2-CPU x86-64 host (Python 3.11), where the
# benchmark was defined.  Only the scale of reported times depends on it.
REFERENCE = 0.009
WALKS = 30


def _tree(depth: int, n: int = 0):
    if depth == 0:
        return ("var", n % 7)
    return ("app", _tree(depth - 1, 2 * n), _tree(depth - 1, 2 * n + 1))


_TREE = _tree(10)
_ENV = {0: ("var", 1), 3: ("var", 4), 5: ("var", 6)}


def _walk(t):
    if t[0] == "var":
        return _ENV.get(t[1], t)
    return ("app", _walk(t[1]), _walk(t[2]))


def slice_time() -> float:
    t0 = perf_counter()
    for _ in range(WALKS):
        _walk(_TREE)
    return perf_counter() - t0


class Calibration:
    """While entered, takes a slice every PERIOD seconds."""

    def __init__(self):
        self.slices: list[float] = []
        self.stolen = 0.0  # seconds spent in slices so far
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            t = slice_time()
            self.slices.append(t)
            self.stolen += t
        finally:
            if enabled:
                gc.enable()
            self._busy = False

    def __enter__(self) -> "Calibration":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.slices:
            self._sample(None, None)

    def clock(self) -> float:
        """perf_counter seconds not spent in slices; a slice that lands
        between the two reads makes it read again."""
        while True:
            stolen = self.stolen
            now = perf_counter()
            if stolen == self.stolen:
                return now - stolen

    @property
    def factor(self) -> float:
        """Multiply a measured time by this to get reference seconds."""
        return REFERENCE / statistics.median(self.slices)
