"""Sample how fast this host runs the interpreter while the benchmark runs.

The benchmark's host is a few cores of a shared machine whose speed
changes from one second to the next with its neighbours' load, and every
operation of gr1report (pure Python, dict- and recursion-heavy) slows
and speeds up with it.  While a `Sampler` is active, a timer signal
interrupts the program every INTERVAL_S seconds and times a short slice
of fixed pure-Python work of the benchmark's own: hashing tuples into
dicts, as the BDD kernel does.  The slice imports nothing from
gr1report, so no change to the program changes its work.  run.py
scales each operation's wall time by REFERENCE_S over the median of the
slices taken during and around it, and subtracts the time spent in
slices (`spent()`) from the operation.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

# median slice time on the reference host: a shared 2-core x86-64 VM,
# Python 3.11.7.  Scaled times read as seconds on that host.
REFERENCE_S = 0.0040
INTERVAL_S = 0.2
SLICE_STEPS = 3000

_spent = 0.0


def spent() -> float:
    """Total seconds spent in slices so far, for subtraction."""
    return _spent


def _work(steps: int) -> int:
    """Hash-cons pseudo-random (var, low, high) triples into a unique
    table and memoise pairs in a second dict."""
    unique: dict[tuple[int, int, int], int] = {}
    memo: dict[tuple[int, int], int] = {}
    x = 1
    for _ in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x % 97, x % 1013, (x >> 7) % 1013)
        if unique.get(key) is None:
            unique[key] = len(unique)
        pair = (key[1], key[2])
        if memo.get(pair) is None:
            memo[pair] = key[0]
    return len(unique)


class Sampler:
    """Times one slice every INTERVAL_S seconds while active (a `with`
    block); `slices` holds their durations in order."""

    def __init__(self):
        self.slices: list[float] = []

    def _tick(self, signum, frame) -> None:
        global _spent
        t0 = perf_counter()
        # a collection of the program's heap inside a slice would time
        # the heap, not the host; the slice's garbage is freed on exit
        enabled = gc.isenabled()
        gc.disable()
        try:
            _work(SLICE_STEPS)
        finally:
            if enabled:
                gc.enable()
        t1 = perf_counter()
        self.slices.append(t1 - t0)
        _spent += perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


if __name__ == "__main__":
    import statistics
    times = []
    for _ in range(200):
        t0 = perf_counter()
        _work(SLICE_STEPS)
        times.append(perf_counter() - t0)
    print(f"slice: median {statistics.median(times) * 1e3:.3f} ms, "
          f"min {min(times) * 1e3:.3f} ms, max {max(times) * 1e3:.3f} ms")
