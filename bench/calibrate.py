"""How fast this machine runs Python right now, from a fixed reference loop.

On a shared machine the speed of one core changes by up to 2x within
seconds and stays changed for minutes, as other tenants come and go.  CPU
time moves with wall time there, so neither can tell the program's speed
from the machine's.  The benchmark therefore runs ``work`` every 0.1 s while
it times the program and scales each stretch of wall time by
``REFERENCE_S`` over the time ``work`` took around it: a normalised second is
a wall second at the speed at which ``work`` takes ``REFERENCE_S``.

``work`` is pure Python of the kind the package runs: recursive
backtracking over adjacency lists with a set of visited vertices, and dicts
keyed by tuples holding frozensets.  Of the loops tried, it followed the
package's own slow-downs most closely.  It never calls the package, so a
change to the package cannot change the reference.
"""

import signal
from bisect import bisect_right
from time import perf_counter

SAMPLE_EVERY_S = 0.1
# About work()'s time, in seconds, on a quiet 2-core x86-64 sandbox with
# CPython 3.11.  Only the scale of normalised times depends on it.
REFERENCE_S = 0.0063


def _graph(n: int) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    x = 12345
    for v in range(n):
        for _ in range(3):
            x = (1103515245 * x + 12345) % 2**31
            u = x % n
            adj[v].append(u)
            adj[u].append(v)
    return adj


_ADJ = _graph(24)


def _paths(v: int, seen: set[int], left: int) -> int:
    if left == 0:
        return 1
    count = 0
    for u in _ADJ[v]:
        if u not in seen:
            seen.add(u)
            count += _paths(u, seen, left - 1)
            seen.discard(u)
    return count


def work() -> int:
    """Count simple paths by backtracking, then fill a dict of tuples and frozensets."""
    total = _paths(0, {0}, 6)
    store = {}
    x = 1
    for i in range(2000):
        x = (1103515245 * x + 12345) % 2**31
        store[(x % 997, x % 1009, i)] = frozenset((x % 13, x % 17, x % 19))
    return total + sum(len(v) for v in store.values())


class Speed:
    """The reference loop, sampled every SAMPLE_EVERY_S by a timer signal.

    Inside ``with Speed() as speed:`` a SIGALRM handler runs ``work`` once,
    after ``between.run()`` if ``between.due()``; then it re-arms the timer.
    Each such gap is left out of every timed interval, so items that last
    seconds get samples inside them too.  ``scaled(t0, t1)`` is the
    normalised length of [t0, t1]: each stretch between two gaps counts at
    the speed given by the mean of the two samples at its ends.
    """

    def __init__(self, between=None):
        self.between = between
        self.gaps: list[tuple[float, float]] = []  # (start, end) of each handler run
        self.samples: list[float] = []  # work() seconds, one per gap
        self._previous = None

    def _gap(self) -> None:
        g0 = perf_counter()
        if self.between is not None and self.between.due():
            self.between.run()
        t0 = perf_counter()
        work()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.gaps.append((g0, t1))

    def _on_alarm(self, signum, frame) -> None:
        self._gap()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def __enter__(self) -> "Speed":
        work()  # warm-up, not a sample
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._on_alarm(signal.SIGALRM, None)
        return self

    def __exit__(self, *exc) -> None:
        # ignore first: a handler already pending would re-arm the timer
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._gap()

    def scaled(self, t0: float, t1: float) -> float:
        """Normalised seconds of [t0, t1], an interval inside the with block.

        Call it after the block has ended, so that a gap follows every interval.
        """
        ends = [end for _start, end in self.gaps]
        k = max(0, bisect_right(ends, t0) - 1)
        total = 0.0
        while k + 1 < len(self.gaps):
            lo = max(t0, self.gaps[k][1])
            hi = min(t1, self.gaps[k + 1][0])
            if hi > lo:
                total += (hi - lo) * 2 * REFERENCE_S / (self.samples[k] + self.samples[k + 1])
            if self.gaps[k + 1][0] >= t1:
                break
            k += 1
        return total
