"""Sliced host-time measurement and the slice-floor estimator.

The simulator is deterministic: repetition *r* of a workload does
byte-identical work in every fixed slice of simulated time.  So a run
is cut at every multiple of a slice width, a ``perf_counter`` stamp is
taken at each cut, and the host time of the run is estimated as

    run_s = sum over slices j of  min over repetitions r of  t[r][j]

A noise burst (another tenant of the VM, a GC pause, a page fault
storm) spoils only the slices it overlaps in one repetition; the other
repetitions supply the clean value.  A minimum over *whole* repetitions
needs one repetition with no burst anywhere, which on a shared 2-core
box rarely exists.

What the floor cannot remove is a slowdown that outlasts the whole run
(a busy SMT sibling, a lower clock): on the box this was written on,
identical code then reads 4-7 % apart from one invocation to the next,
drifting over minutes.  So on every slice boundary, outside the timed
slices, the clock also times a small fixed kernel of the operations the
simulator is made of (:func:`calibration_kernel`), and the *same*
estimator is applied to it: per boundary the minimum over repetitions,
averaged over boundaries.  That floor against
:data:`REFERENCE_KERNEL_S` says how fast the box was while this run's
clean slices ran (:func:`speed_factor`); host times are reported
divided by it, in seconds of the reference box.  (The median of the
samples is the wrong yardstick: under heavy noise it rises with the
bursts the slice floor escapes, and over-corrects by 10-20 %.)
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from heapq import heappop, heappush
from typing import List, Optional, Sequence

__all__ = ["slice_stops", "SliceClock", "slice_floor",
           "calibration_kernel", "speed_factor", "REFERENCE_KERNEL_S"]

#: the floor of one :func:`calibration_kernel` call on the box that
#: defined the benchmark when nothing competes with it
REFERENCE_KERNEL_S = 0.00038


def calibration_kernel(n: int = 600) -> None:
    """A fixed ~0.4 ms of what the engine does all day: heap pushes and
    pops of event tuples, ring appends, generator resumes, dict traffic.
    It lives here, not in ``src/``, so no change to the simulator moves
    it."""
    heap: list = []
    ring: deque = deque()
    table: dict = {}

    def ticker():
        while True:
            yield 1

    resume = ticker()
    next(resume)
    for i in range(n):
        heappush(heap, ((i * 7919) % 1009, i, None, None))
        ring.append((None, i))
        table[i] = i
    while heap:
        entry = heappop(heap)
        ring.popleft()
        resume.send(None)
        table.get(entry[1])


def speed_factor(calibration: Sequence[Sequence[float]]) -> float:
    """How slow the box was during a run (1.0 = the reference box, 1.1
    = everything took 10 % longer).

    ``calibration[r][j]`` is the kernel sample taken on boundary *j* of
    repetition *r*; the estimate is the kernel's slice floor per call.
    """
    count = min(len(row) for row in calibration)
    if count == 0:
        raise ValueError("no calibration samples")
    floor = sum(min(row[j] for row in calibration)
                for j in range(count)) / count
    return floor / REFERENCE_KERNEL_S


def slice_stops(now: int, until: int, origin: int, width: int) -> List[int]:
    """The cycles at which a run from ``now`` to ``until`` must pause.

    Every slice boundary ``origin + j * width`` in ``(now, until]``, then
    ``until`` itself when it is not a boundary — so consecutive bounded
    runs to these stops land exactly where one run to ``until`` would.
    """
    if width <= 0:
        raise ValueError("slice width must be positive")
    if until <= now:
        return [until]
    first = origin + ((now - origin) // width + 1) * width
    stops = list(range(first, until + 1, width))
    if not stops or stops[-1] != until:
        stops.append(until)
    return stops


class SliceClock:
    """Collects the stamps of one repetition.

    ``start`` is called when set-up ends (``Cluster.seal()`` returned),
    ``cross`` each time the run reaches a slice boundary, ``finish``
    when the report exists.  Slice *j* runs from the previous boundary
    to the next, so whatever happens between two boundaries — chaos
    calls, drain, shutdown, report assembly — lands in a slice, and the
    slices sum to the whole run less the calibration samples taken *on*
    the boundaries.
    """

    def __init__(self, width: int):
        self.width = width
        self.origin: Optional[int] = None
        #: when set-up ended
        self.sealed_at = 0.0
        self._begins: List[float] = []
        self._ends: List[float] = []
        #: ``Engine.pending_events()`` at each boundary
        self.pending: List[int] = []
        #: seconds per calibration kernel call, one per boundary
        self.calibration: List[float] = []

    @property
    def started(self) -> bool:
        return self.origin is not None

    def _calibrate(self) -> None:
        # the slice just run evicted the kernel's working set: the first
        # call reads ~20 % slow whatever the box is doing, so it only
        # warms the caches and the next two are the sample
        calibration_kernel()
        t0 = time.perf_counter()
        calibration_kernel()
        calibration_kernel()
        self.calibration.append((time.perf_counter() - t0) / 2)

    def start(self, now: int) -> None:
        self.sealed_at = time.perf_counter()
        self.origin = now
        self._calibrate()
        self._begins.append(time.perf_counter())

    def is_boundary(self, cycle: int) -> bool:
        return (cycle - self.origin) % self.width == 0

    def cross(self, pending: int) -> None:
        self._ends.append(time.perf_counter())
        self.pending.append(pending)
        self._calibrate()
        self._begins.append(time.perf_counter())

    def finish(self) -> None:
        self._ends.append(time.perf_counter())

    def slice_times(self) -> List[float]:
        return [end - begin
                for begin, end in zip(self._begins, self._ends)]


def slice_floor(matrix: Sequence[Sequence[float]]) -> float:
    """Noise-floor host time of a run measured ``len(matrix)`` times.

    ``matrix[r][j]`` is the host time of slice *j* in repetition *r*;
    every repetition must have the same number of slices.
    """
    if not matrix:
        raise ValueError("no repetitions")
    width = len(matrix[0])
    if width == 0 or any(len(row) != width for row in matrix):
        raise ValueError("repetitions disagree on the number of slices")
    return sum(min(column) for column in zip(*matrix))
