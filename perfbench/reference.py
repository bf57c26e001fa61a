"""A fixed reference workload that measures how fast the host runs right now.

On a shared host the speed of a CPU drifts by 10-20% over minutes: other
tenants take shares of caches, memory bandwidth and hyperthread siblings.
Its speed also jumps: on the host the benchmark was built on, it fell by
about 40% for stretches of ten seconds and more.  The engine slows with it,
so timings of the same code differ from run to run.  The benchmark therefore
times a pass of this workload, which never changes, before and after each
timed set-up and search, and scales that timing to the speed at which one
pass takes :data:`REFERENCE_SECONDS`, judged by the mean of the two passes
around it.  A change to the engine moves the searches but not the reference;
a change in host speed moves both and cancels out.

The mix follows the engine on the simulated backend: a pure-Python event
loop over a heap of small objects and dicts (the simulator and the master's
bookkeeping), and NumPy gathers, reductions and row products on small
arrays of a hundred to twenty thousand elements (the swap-evaluation
kernels).
"""

from __future__ import annotations

import heapq
import statistics
from typing import Callable, List

import numpy as np

__all__ = ["REFERENCE_SECONDS", "SpeedReference", "reference_work"]

#: Nominal length of one pass.  A pass took 0.077-0.173 s of CPU time on the
#: 2-vCPU Intel Xeon host the benchmark was built on, as its speed changed.
REFERENCE_SECONDS = 0.1

_EVENTS = 45_000
_ARRAY_PASSES = 140


class _Event:
    __slots__ = ("time", "owner", "serial")

    def __init__(self, time: int, owner: int, serial: int) -> None:
        self.time = time
        self.owner = owner
        self.serial = serial

    def __lt__(self, other: "_Event") -> bool:
        return self.time < other.time


def _event_loop() -> int:
    state = 12345
    heap: List[_Event] = []
    totals = {}
    for serial in range(_EVENTS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, _Event(state % 9973, serial % 97, serial))
        if len(heap) > 64:
            event = heapq.heappop(heap)
            totals[event.owner] = totals.get(event.owner, 0) + event.time
    return sum(totals.values())


_RNG = np.random.default_rng(7)
_VALUES = _RNG.random(20_000)
_INDEX = _RNG.integers(0, 20_000, size=(2048, 6))
_MATRIX = _RNG.random((100, 100))
_ROWS = _RNG.integers(0, 100, size=(2, 256))
# Work buffers are allocated once, and what the passes allocate stays below
# glibc's 128 KiB mmap threshold: whether a larger temporary is mapped fresh
# (and page-faulted) or reused from the heap depends on the allocation
# history, which made an earlier version of this workload run twice as fast
# in some processes as in others.
_GATHERED = np.empty((2048, 6))
_EXTREMES = np.empty((2, 2048))
_LEFT = np.empty((256, 100))
_RIGHT = np.empty((256, 100))
_PRODUCTS = np.empty(256)


def _array_kernels() -> float:
    total = 0.0
    for _ in range(_ARRAY_PASSES):
        np.take(_VALUES, _INDEX, out=_GATHERED)
        np.max(_GATHERED, axis=1, out=_EXTREMES[0])
        np.min(_GATHERED, axis=1, out=_EXTREMES[1])
        total += float(_EXTREMES[0].sum() - _EXTREMES[1].sum())
        np.take(_MATRIX, _ROWS[0], axis=0, out=_LEFT)
        np.take(_MATRIX, _ROWS[1], axis=0, out=_RIGHT)
        np.einsum("ij,ij->i", _LEFT, _RIGHT, out=_PRODUCTS)
        total += float(_PRODUCTS.sum())
        order = np.argsort(_VALUES[:4096])
        total += float(_VALUES[order[:10]].sum())
    return total


def reference_work() -> float:
    """One pass of the reference workload; returns a checksum of its results."""
    return _event_loop() + _array_kernels()


class SpeedReference:
    """Times passes of the reference workload on one clock.

    Call :meth:`sample` once before the first timed piece of work and once
    after each; :meth:`scale` then gives the factor for the last piece.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.samples: List[float] = []
        reference_work()  # warm-up: first-touch allocations and caches

    def sample(self) -> None:
        started = self.clock()
        reference_work()
        self.samples.append(self.clock() - started)

    def scale(self) -> float:
        """Factor that turns the time of the work between the last two passes
        into reference seconds."""
        before, after = self.samples[-2:]
        return REFERENCE_SECONDS / ((before + after) / 2)

    def median(self) -> float:
        return statistics.median(self.samples)
