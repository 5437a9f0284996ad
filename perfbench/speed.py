"""The machine's speed, probed while the program runs.

On a shared virtual machine the speed of a CPU-bound loop changes from
one millisecond to the next, by up to 1.9x, with no steal time reported:
other tenants share the cores and their caches.  A time measured there
says as much about the neighbours as about the program.

A ``Speed`` probe times a fixed pure-Python chunk from a ``SIGALRM``
handler every ``INTERVAL`` seconds, in the thread it interrupts.  The
chunk does what the program does most: it walks a small tree of frozen
dataclasses, hashing and comparing nodes and memoising in a dict, so
contention slows it about as much as it slows the program.  The chunk's
time over its reference time ``REF_S`` is the machine's slowdown at
that moment.  ``Speed.scale`` divides a measured interval by the mean
slowdown around it, which gives the interval's length at reference
speed.  The chunk touches no code of the program, so a change to the
program moves the scaled time as much as the measured one.

The handler runs between bytecodes of the interrupted thread, so its
own time lands inside whatever is being timed; ``Speed.spent`` lets the
caller take it out again.
"""
from __future__ import annotations

import bisect
import signal
from dataclasses import dataclass
from time import perf_counter

INTERVAL = 0.005    # seconds between probes
REF_S = 60e-6       # the chunk's mean time, under its usual load, on the
                    # 2-vCPU Xeon virtual machine the benchmark was written on
CLIP = 4.0          # a probe slower than CLIP x REF_S was descheduled
WINDOW = 0.05       # seconds of probes on each side of a scaled interval


@dataclass(frozen=True)
class _Node:
    op: str
    kids: tuple


def _tree(depth: int, k: int) -> _Node:
    if depth == 0:
        return _Node(f"a{k % 5}", ())
    return _Node("and" if k % 2 else "or",
                 (_tree(depth - 1, 2 * k), _tree(depth - 1, 2 * k + 1)))


_TREE = _tree(3, 1)


def _size(node: _Node, memo: dict) -> int:
    if node not in memo:
        memo[node] = 1 + sum(_size(kid, memo) for kid in node.kids)
    return memo[node]


def _chunk() -> int:
    return _size(_TREE, {})


class Speed:
    def __init__(self):
        self.at: list = []          # probe start times
        self.slow: list = []        # slowdown of each probe, clipped
        self.spent = 0.0            # seconds spent inside the handler
        self._old = None

    def _handler(self, signum, frame) -> None:
        t0 = perf_counter()
        _chunk()
        t1 = perf_counter()
        self.at.append(t0)
        self.slow.append(min((t1 - t0) / REF_S, CLIP))
        self.spent += perf_counter() - t0

    def start(self) -> "Speed":
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._old is not None:
            signal.signal(signal.SIGALRM, self._old)
            self._old = None

    def slowdown(self, t0: float = float("-inf"),
                 t1: float = float("inf")) -> float:
        """Mean slowdown of the probes from ``WINDOW`` before ``t0`` to
        ``WINDOW`` after ``t1``; 1.0 when there are none."""
        i = bisect.bisect_left(self.at, t0 - WINDOW)
        j = bisect.bisect_right(self.at, t1 + WINDOW)
        return sum(self.slow[i:j]) / (j - i) if j > i else 1.0

    def scale(self, t0: float, t1: float, seconds: float) -> float:
        """``seconds``, measured from ``t0`` to ``t1``, at reference speed."""
        return seconds / self.slowdown(t0, t1)
