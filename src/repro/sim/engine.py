"""Cycle-driven discrete-event simulation engine.

The engine is the clock of the whole reproduction: NoC routers, Apiary
monitors, DRAM channels and accelerators are all coroutine *processes*
scheduled on one integer cycle counter.  The design is deliberately small —
one FIFO bucket of callbacks per future cycle, a heap of the cycles that
have a bucket, plus a same-cycle FIFO ring — because everything else
(channels, processes, resources) is built from the two primitives defined
here: scheduled callbacks and one-shot :class:`Event` objects.

Performance structure (see DESIGN.md, "Simulator performance"): the hot
path is deliberately allocation-free.  ``delay == 0`` callbacks — the
dominant case, produced by every event trigger — go to a FIFO ring; a
``delay >= 1`` callback is appended to its cycle's bucket, so the heap
orders plain integers and only once per distinct cycle; and integer-delay
yields from processes schedule the process's resume hook directly instead
of minting a throwaway :class:`Event` per ``yield n``.  All of it preserves
the engine's ordering contract exactly: callbacks at the same cycle run in
the order they were scheduled, and the clock is monotone.

Example
-------
>>> from repro.sim import Engine
>>> eng = Engine()
>>> def blinker(env):
...     for _ in range(3):
...         yield 10
>>> p = eng.process(blinker(eng))
>>> eng.run()
>>> eng.now
30
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Tuple

from repro.errors import SimulationError

__all__ = ["Engine", "Event", "Process", "Interrupt"]

#: Sentinel marking "this process is waiting on a bare engine timer", the
#: zero-allocation replacement for the per-yield delay Event.
_TIMER = object()


class Interrupt(Exception):
    """Thrown *into* a process generator when it is interrupted.

    The Apiary monitor uses this to model preemption: an accelerator context
    blocked mid-computation receives an :class:`Interrupt` and must
    externalize its state (Section 4.4 of the paper).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence processes can wait on.

    An event starts *pending*; :meth:`succeed` or :meth:`fail` triggers it
    exactly once, resuming every waiting process on the same cycle the
    trigger happens (callbacks run via the engine queue with zero delay, so
    ordering stays deterministic).
    """

    __slots__ = ("engine", "_callbacks", "_triggered", "_value", "_is_error", "name")

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.name = name
        self._callbacks: List[Callable[["Event"], None]] = []
        self._triggered = False
        self._value: Any = None
        self._is_error = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(f"event {self.name!r} read before trigger")
        return self._value

    @property
    def failed(self) -> bool:
        return self._triggered and self._is_error

    def succeed(self, value: Any = None) -> "Event":
        return self._trigger(value, is_error=False)

    def fail(self, exc: BaseException) -> "Event":
        if not isinstance(exc, BaseException):
            raise SimulationError("Event.fail expects an exception instance")
        return self._trigger(exc, is_error=True)

    def _trigger(self, value: Any, is_error: bool) -> "Event":
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        self._is_error = is_error
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            self.engine.schedule(0, cb, self)
        return self

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        if self._triggered:
            self.engine.schedule(0, cb, self)
        else:
            self._callbacks.append(cb)

    def remove_callback(self, cb: Callable[["Event"], None]) -> None:
        """Detach ``cb`` if still registered (no-op once triggered)."""
        try:
            self._callbacks.remove(cb)
        except ValueError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<Event {self.name!r} {state}>"


class Process:
    """A generator coroutine driven by the engine.

    The generator may yield:

    * ``int`` — wait that many cycles (0 allowed: yield to same-cycle peers),
    * :class:`Event` — wait for the event; ``yield`` evaluates to its value
      (a failed event re-raises its exception inside the generator),
    * :class:`Process` — join: wait for the child to finish, receiving its
      return value,
    * ``None`` — equivalent to ``yield 0``.

    A process is itself an :class:`Event` source: :attr:`done` triggers with
    the generator's return value (or failure) when it exits.

    Integer yields take the zero-allocation path: the engine schedules
    :meth:`_timer_fired` directly, tagged with a wait epoch so a stale timer
    left behind by an interrupt can never double-resume the generator.
    """

    __slots__ = ("engine", "generator", "name", "done", "_alive",
                 "_waiting_on", "_wait_epoch")

    def __init__(self, engine: "Engine", generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Engine.process needs a generator, got {type(generator).__name__}"
            )
        self.engine = engine
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "proc")
        self.done = Event(engine, name=f"{self.name}.done")
        self._alive = True
        self._waiting_on: Optional[Any] = None
        self._wait_epoch = 0
        engine.schedule(0, self._resume, None)

    @property
    def alive(self) -> bool:
        return self._alive

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current cycle.

        Interrupting a dead process is a no-op (the race is benign and
        common: a watchdog fires just as the victim finishes).
        """
        if not self._alive:
            return
        self.engine.schedule(0, self._throw, Interrupt(cause))

    def _throw(self, exc: BaseException) -> None:
        if not self._alive:
            return
        self._detach_wait()
        try:
            command = self.generator.throw(exc)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except BaseException as err:
            self._finish(None, err)
            return
        self._dispatch(command)

    def _resume(self, event: Optional[Event]) -> None:
        if not self._alive:
            return
        self._waiting_on = None
        try:
            if event is None:
                command = next(self.generator)
            elif event.failed:
                command = self.generator.throw(event.value)
            else:
                command = self.generator.send(event.value)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except BaseException as err:
            self._finish(None, err)
            return
        self._dispatch(command)

    def _timer_fired(self, epoch: int) -> None:
        """First hop of the zero-allocation integer-delay path.

        Bounces once through the same-cycle ring before resuming, exactly as
        the Event-based path did (``done.succeed`` then a 0-delay callback):
        same-cycle interleaving with other callbacks is therefore identical
        to the pre-overhaul engine.  A stale entry (the process was
        interrupted and re-armed) carries an old epoch and is ignored.
        """
        if (epoch != self._wait_epoch or self._waiting_on is not _TIMER
                or not self._alive):
            return
        self.engine.schedule(0, self._timer_resume, epoch)

    def _timer_resume(self, epoch: int) -> None:
        """Second hop: actually resume the generator, unless gone stale."""
        if (epoch != self._wait_epoch or self._waiting_on is not _TIMER
                or not self._alive):
            return
        self._waiting_on = None
        self._resume(None)

    def _dispatch(self, command: Any) -> None:
        if command is None:
            command = 0
        if isinstance(command, int):
            if command < 0:
                self._finish(
                    None, SimulationError(f"{self.name}: negative delay {command}")
                )
                return
            self._wait_epoch += 1
            self._waiting_on = _TIMER
            self.engine.schedule(command, self._timer_fired, self._wait_epoch)
            return
        if isinstance(command, Process):
            command = command.done
        if not isinstance(command, Event):
            self._finish(
                None,
                SimulationError(
                    f"{self.name} yielded {type(command).__name__}; expected "
                    "int, Event, Process or None"
                ),
            )
            return
        self._waiting_on = command
        command.add_callback(self._resume)

    def _detach_wait(self) -> None:
        waiting = self._waiting_on
        self._waiting_on = None
        if waiting is None:
            return
        if waiting is _TIMER:
            # the scheduled _timer_fired entry goes stale; bumping the epoch
            # turns it into a no-op without touching its bucket
            self._wait_epoch += 1
        elif not waiting.triggered:
            try:
                waiting._callbacks.remove(self._resume)
            except ValueError:
                pass

    def _finish(self, value: Any, error: Optional[BaseException]) -> None:
        self._alive = False
        self.generator.close()
        if error is None:
            self.done.succeed(value)
            return
        orphan = not self.done._callbacks
        self.done.fail(error)
        if orphan:
            # nobody is joined on this process: abort Engine.run from inside
            # the callback, so the run loop pays no per-callback crash check
            raise SimulationError(
                f"unhandled error in process {self.name!r} "
                f"at cycle {self.engine.now}"
            ) from error

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self._alive else "done"
        return f"<Process {self.name!r} {state} t={self.engine.now}>"


class Engine:
    """The simulation clock and event queue.

    Two scheduling structures back :meth:`schedule`:

    * per-cycle FIFO buckets for future cycles (``delay > 0``): a dict
      from cycle to that cycle's ``(callback, arg)`` entries in scheduling
      order, plus a binary heap of the plain-int cycles that have a
      bucket.  A cycle's first entry is stored bare and becomes a list
      only when a second one arrives, so a push onto the heap is paid
      once per distinct cycle and ties on the cycle cost nothing; and
    * a plain FIFO ring for same-cycle callbacks (``delay == 0``), which
      every :class:`Event` trigger produces.

    Ordering invariant: a cycle's bucket (scheduled in *earlier* cycles)
    fires as one unit before that cycle's ring entries (scheduled *during*
    the cycle), and both are FIFO.  This reproduces exactly the global
    ``(time, sequence)`` order the heap-only engine had, so simulations
    are bit-for-bit deterministic.

    An exception escaping a process nobody is joined on aborts :meth:`run`
    with a :class:`SimulationError`: silent failures hide model bugs.
    Modelled faults never get that far — a tile's processes report them
    to its fault manager instead (see :class:`repro.kernel.tile.Tile`).
    """

    __slots__ = ("now", "_buckets", "_cycles", "_ring", "_running",
                 "_settled", "process_count")

    def __init__(self):
        self.now = 0
        #: cycle -> its bucket: one bare ``(callback, arg)`` or a list of them
        self._buckets: Dict[int, Any] = {}
        #: heap of the cycles that have a bucket, each exactly once
        self._cycles: List[int] = []
        self._ring: Deque[Tuple[Callable, Any]] = deque()
        self._running = False
        #: the latest cycle whose bucket is known to have fired
        self._settled = -1
        self.process_count = 0

    @property
    def settled(self) -> bool:
        """Whether every callback stamped for the current cycle *from an
        earlier cycle* has fired: true inside the same-cycle ring and after
        :meth:`run` returns, false while this cycle's bucket is firing and
        at a :meth:`run_window` barrier (the barrier cycle has not run).  A
        model that keeps closed-form state uses it to tell whether "now"
        includes this cycle's clocked actions."""
        return self._settled >= self.now

    # -- scheduling ------------------------------------------------------

    def schedule(self, delay: int, callback: Callable, arg: Any = None) -> None:
        """Run ``callback(arg)`` after ``delay`` cycles (0 = this cycle)."""
        if delay == 0:
            self._ring.append((callback, arg))
            return
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        entry = (callback, arg)
        bucket = self._buckets.setdefault(time, entry)
        if bucket is entry:
            heappush(self._cycles, time)
        elif bucket.__class__ is list:
            bucket.append(entry)
        else:
            self._buckets[time] = [bucket, entry]

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def process(self, generator: Generator, name: str = "") -> Process:
        self.process_count += 1
        return Process(self, generator, name=name)

    def timeout(self, delay: int) -> Event:
        """An event that succeeds (with ``None``) ``delay`` cycles from now."""
        done = Event(self, name=f"timeout@{self.now + delay}")
        self.schedule(delay, done.succeed)
        return done

    def any_of(self, events: List[Event]) -> Event:
        """An event that succeeds when the *first* of ``events`` triggers.

        The value is the ``(index, value)`` pair of the winner.  A failed
        constituent fails the combined event.

        Losing constituents are detached when the winner triggers: a
        long-lived pending event (a shutdown signal, say)
        raced against thousands of short timeouts must not accumulate one
        dead callback per race.
        """
        if not events:
            raise SimulationError("any_of needs at least one event")
        combined = Event(self, name="any_of")
        hooks: List[Callable[[Event], None]] = []

        def on_trigger(index: int, ev: Event) -> None:
            if combined.triggered:
                return
            # detach the losers' callbacks so pending constituents do not
            # pin this combined event (and everything it closes over) alive
            for other, hook in zip(events, hooks):
                if other is not ev and not other._triggered:
                    other.remove_callback(hook)
            if ev.failed:
                combined.fail(ev.value)
            else:
                combined.succeed((index, ev.value))

        for i, ev in enumerate(events):
            hook = lambda e, i=i: on_trigger(i, e)  # noqa: E731
            hooks.append(hook)
            ev.add_callback(hook)
        return combined

    def all_of(self, events: List[Event]) -> Event:
        """An event that succeeds when *all* of ``events`` have triggered.

        The value is the list of constituent values in order.  The first
        failure fails the combined event immediately (remaining pending
        constituents are detached, mirroring :meth:`any_of`).
        """
        if not events:
            raise SimulationError("all_of needs at least one event")
        combined = Event(self, name="all_of")
        remaining = {"count": len(events)}
        values: List[Any] = [None] * len(events)
        hooks: List[Callable[[Event], None]] = []

        def on_trigger(index: int, ev: Event) -> None:
            if combined.triggered:
                return
            if ev.failed:
                for other, hook in zip(events, hooks):
                    if other is not ev and not other._triggered:
                        other.remove_callback(hook)
                combined.fail(ev.value)
                return
            values[index] = ev.value
            remaining["count"] -= 1
            if remaining["count"] == 0:
                combined.succeed(values)

        for i, ev in enumerate(events):
            hook = lambda e, i=i: on_trigger(i, e)  # noqa: E731
            hooks.append(hook)
            ev.add_callback(hook)
        return combined

    # -- execution -------------------------------------------------------

    def run(self, until: Optional[int] = None) -> None:
        """Drain the event queue, optionally stopping at cycle ``until``.

        With ``until`` given, the clock is advanced to exactly ``until`` even
        if the queue drains earlier, so back-to-back ``run(until=...)`` calls
        observe a monotone clock.
        """
        if self._running:
            raise SimulationError("Engine.run re-entered")
        self._running = True
        # local bindings: every name in the loop body resolves without a
        # dict lookup — this loop runs once per simulated cycle or callback
        buckets = self._buckets
        pop_bucket = buckets.pop
        cycles = self._cycles
        pop_cycle = heappop
        ring = self._ring
        ring_popleft = ring.popleft
        bounded = until is not None
        now = self.now
        try:
            while True:
                if cycles and (not ring or cycles[0] <= now):
                    # the earliest bucket: either it is stamped for the
                    # current cycle — scheduled in an earlier cycle, so it
                    # runs before this cycle's ring entries — or the ring is
                    # empty and the clock advances to it.  Its callbacks can
                    # only schedule into the ring or a later cycle, so the
                    # bucket is closed and fires as one unit.
                    time = cycles[0]
                    if bounded and time > until:
                        break
                    pop_cycle(cycles)
                    bucket = pop_bucket(time)
                    self.now = now = time
                    if bucket.__class__ is tuple:
                        bucket[0](bucket[1])
                        continue
                    entries = iter(bucket)
                    try:
                        for callback, arg in entries:
                            callback(arg)
                    except BaseException:
                        # the rest of the bucket is still due this cycle
                        rest = list(entries)
                        if rest:
                            buckets[time] = rest
                            heappush(cycles, time)
                        raise
                elif ring:
                    if bounded and now > until:
                        break
                    # ring callbacks can only append to the ring or schedule
                    # into later cycles (delay >= 1), so the ring drains
                    # without looking at the buckets or the clock
                    self._settled = now
                    while ring:
                        callback, arg = ring_popleft()
                        callback(arg)
                else:
                    break
            if bounded and now < until:
                self.now = now = until
            if not (cycles and cycles[0] <= now):
                self._settled = now
        finally:
            self._running = False

    def peek_next(self) -> Optional[int]:
        """The cycle of the earliest pending callback, or ``None`` if idle.

        Same-cycle ring entries are "due now", so a non-empty ring reports
        :attr:`now`; otherwise the earliest bucket's cycle.  Used by the
        windowed cluster backends to detect quiescent partitions, and
        useful standalone for bounded stepping loops.
        """
        if self._ring:
            return self.now
        if self._cycles:
            return self._cycles[0]
        return None

    def run_window(self, until_cycle: int) -> None:
        """Execute every event *strictly before* ``until_cycle``, then park
        the clock exactly at ``until_cycle``.

        The bounded entry point of conservative parallel simulation: a
        partition granted the window ``[now, until_cycle)`` processes all
        its events in that half-open interval and stops on the window
        barrier, ready for cross-partition traffic stamped at or after
        ``until_cycle`` to be injected.  Events scheduled *at*
        ``until_cycle`` stay queued for the next window, so back-to-back
        ``run_window`` calls partition the timeline with no gap and no
        double execution.  A window to the current cycle is a no-op.
        """
        if until_cycle < self.now:
            raise SimulationError(
                f"window end {until_cycle} is before cycle {self.now}"
            )
        if until_cycle > self.now:
            # run() is inclusive of its bound, so stop one cycle short ...
            self.run(until=until_cycle - 1)
            # ... and park on the barrier (run() already advanced the clock
            # to until_cycle - 1 even if the queue drained early)
            self.now = until_cycle

    def run_until_done(self, event: Event, limit: int = 10_000_000) -> Any:
        """Run until ``event`` triggers; raise if ``limit`` cycles pass first.

        Convenience for tests: returns the event value, re-raises a failure.
        """
        # Register interest so a failure routes to this event instead of
        # being treated as an orphaned process error.
        event.add_callback(lambda _e: None)
        deadline = self.now + limit
        while not event.triggered:
            if not self._cycles and not self._ring:
                raise SimulationError(
                    f"queue drained at cycle {self.now} before {event!r} triggered"
                )
            if self.now > deadline:
                raise SimulationError(f"event {event!r} not triggered within {limit}")
            self.run(until=self._cycles[0] if self._cycles else self.now)
        if event.failed:
            raise event.value
        return event.value

    def pending_events(self) -> int:
        """How many callbacks are scheduled and have not fired."""
        return len(self._ring) + sum(
            len(bucket) if bucket.__class__ is list else 1
            for bucket in self._buckets.values()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine t={self.now} queued={self.pending_events()}>"
