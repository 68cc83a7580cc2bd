"""Bounded FIFO channels — the simulated hardware queues.

A :class:`Channel` is a bounded FIFO with blocking put/get and credit-style
backpressure, matching how on-chip FIFOs behave.  It is what a process
waits on: a shell's inbox, a bare NoC interface's delivery queue, a
transport endpoint's inbox when no receiver callback is given.

Processes use channels by yielding the events returned from :meth:`Channel.put`
and :meth:`Channel.get`::

    def producer(env, ch):
        for i in range(10):
            yield ch.put(i)      # blocks while the FIFO is full
            yield 1

    def consumer(env, ch):
        while True:
            item = yield ch.get()  # blocks while the FIFO is empty
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.engine import Engine, Event

__all__ = ["Channel"]


class Channel:
    """A bounded FIFO with blocking semantics and FIFO fairness.

    Parameters
    ----------
    engine:
        Simulation engine supplying the clock.
    capacity:
        Maximum queued items; ``None`` means unbounded (useful for
        measurement taps, not for modelled hardware).
    name:
        Label used in traces and error messages.
    """

    __slots__ = ("engine", "capacity", "name", "_items", "_getters",
                 "_putters")

    def __init__(
        self,
        engine: Engine,
        capacity: Optional[int] = 1,
        name: str = "",
    ):
        if capacity is not None and capacity < 1:
            raise SimulationError(f"channel capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Tuple[Event, Any]] = deque()

    # -- inspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    # -- operations ------------------------------------------------------

    def put(self, item: Any) -> Event:
        """Enqueue ``item``; the returned event succeeds once it is accepted."""
        done = Event(self.engine, name=f"{self.name}.put")
        if not self.full and not self._putters:
            self._accept(item)
            done.succeed(None)
        else:
            self._putters.append((done, item))
        return done

    def try_put(self, item: Any) -> bool:
        """Non-blocking put: accept the item now or return ``False``."""
        if self.full or self._putters:
            return False
        self._accept(item)
        return True

    def get(self) -> Event:
        """Dequeue one item; the returned event succeeds with the item."""
        done = Event(self.engine, name=f"{self.name}.get")
        if self._items:
            item = self._items.popleft()
            done.succeed(item)
            self._drain_putters()
        else:
            self._getters.append(done)
        return done

    def try_get(self) -> Tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if not self._items:
            return False, None
        item = self._items.popleft()
        self._drain_putters()
        return True, item

    # -- internals -------------------------------------------------------

    def _accept(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def _drain_putters(self) -> None:
        while self._putters and not self.full:
            done, item = self._putters.popleft()
            self._accept(item)
            done.succeed(None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cap = "inf" if self.capacity is None else str(self.capacity)
        return f"<Channel {self.name!r} {len(self._items)}/{cap}>"
