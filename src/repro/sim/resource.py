"""Counted resources (semaphores) for modelling shared hardware units.

A :class:`Resource` models something with a fixed number of concurrent
users — a DRAM bank, a PCIe DMA engine, a host CPU core.  Processes acquire
a slot (blocking, FIFO-fair), hold it for however many cycles the operation
takes, then release it.

    def worker(env, dma):
        grant = yield dma.acquire()
        yield 120                 # transfer time
        dma.release(grant)
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.errors import SimulationError
from repro.sim.engine import Engine, Event

__all__ = ["Resource", "Grant"]


class Grant:
    """Token proving a successful acquire; must be passed back to release."""

    __slots__ = ("resource", "acquired_at", "released")

    def __init__(self, resource: "Resource", acquired_at: int):
        self.resource = resource
        self.acquired_at = acquired_at
        self.released = False


class Resource:
    """A FIFO-fair counted semaphore."""

    def __init__(self, engine: Engine, slots: int = 1, name: str = ""):
        if slots < 1:
            raise SimulationError(f"resource needs >= 1 slot, got {slots}")
        self.engine = engine
        self.slots = slots
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def available(self) -> int:
        return self.slots - self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        """Returns an event that succeeds with a :class:`Grant`."""
        done = Event(self.engine, name=f"{self.name}.acquire")
        if self._in_use < self.slots and not self._waiters:
            self._grant(done)
        else:
            self._waiters.append(done)
        return done

    def release(self, grant: Grant) -> None:
        if grant.resource is not self:
            raise SimulationError(f"grant does not belong to resource {self.name!r}")
        if grant.released:
            raise SimulationError(f"double release on resource {self.name!r}")
        grant.released = True
        self._in_use -= 1
        if self._waiters and self._in_use < self.slots:
            self._grant(self._waiters.popleft())

    def _grant(self, done: Event) -> None:
        self._in_use += 1
        done.succeed(Grant(self, self.engine.now))
