"""Unit tests for the discrete-event engine, events and processes."""

import heapq
from collections import deque
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Engine, Event, Interrupt


def test_clock_starts_at_zero():
    eng = Engine()
    assert eng.now == 0


def test_schedule_runs_in_time_order():
    eng = Engine()
    order = []
    eng.schedule(5, lambda _: order.append("b"))
    eng.schedule(1, lambda _: order.append("a"))
    eng.schedule(9, lambda _: order.append("c"))
    eng.run()
    assert order == ["a", "b", "c"]
    assert eng.now == 9


def test_same_cycle_callbacks_keep_insertion_order():
    eng = Engine()
    order = []
    for i in range(10):
        eng.schedule(3, lambda _, i=i: order.append(i))
    eng.run()
    assert order == list(range(10))


def test_schedule_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.schedule(-1, lambda _: None)


def test_run_until_stops_clock_at_bound():
    eng = Engine()
    fired = []
    eng.schedule(100, lambda _: fired.append(1))
    eng.run(until=50)
    assert eng.now == 50
    assert not fired
    eng.run()
    assert fired == [1]
    assert eng.now == 100


def test_run_until_advances_clock_even_when_queue_empty():
    eng = Engine()
    eng.run(until=42)
    assert eng.now == 42


def test_process_delays_advance_clock():
    eng = Engine()

    def proc():
        yield 10
        yield 15

    eng.process(proc())
    eng.run()
    assert eng.now == 25


def test_process_return_value_via_done_event():
    eng = Engine()

    def proc():
        yield 1
        return 42

    p = eng.process(proc())
    eng.run()
    assert p.done.triggered
    assert p.done.value == 42
    assert not p.alive


def test_process_yield_none_is_zero_delay():
    eng = Engine()
    steps = []

    def proc():
        steps.append(eng.now)
        yield None
        steps.append(eng.now)

    eng.process(proc())
    eng.run()
    assert steps == [0, 0]


def test_process_join_child():
    eng = Engine()

    def child():
        yield 7
        return "result"

    def parent():
        value = yield eng.process(child())
        return (eng.now, value)

    p = eng.process(parent())
    eng.run()
    assert p.done.value == (7, "result")


def test_event_wakes_waiting_process():
    eng = Engine()
    ev = eng.event("go")
    seen = []

    def waiter():
        value = yield ev
        seen.append((eng.now, value))

    eng.process(waiter())
    eng.schedule(30, lambda _: ev.succeed("payload"))
    eng.run()
    assert seen == [(30, "payload")]


def test_event_failure_raises_inside_process():
    eng = Engine()
    ev = eng.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as err:
            caught.append(str(err))

    eng.process(waiter())
    eng.schedule(5, lambda _: ev.fail(ValueError("boom")))
    eng.run()
    assert caught == ["boom"]


def test_event_double_trigger_rejected():
    eng = Engine()
    ev = eng.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_value_before_trigger_rejected():
    eng = Engine()
    ev = eng.event("pending")
    with pytest.raises(SimulationError):
        _ = ev.value


def test_waiting_on_already_triggered_event_resumes_immediately():
    eng = Engine()
    ev = eng.event()
    ev.succeed("early")
    got = []

    def waiter():
        got.append((yield ev))

    eng.process(waiter())
    eng.run()
    assert got == ["early"]


def test_timeout_event():
    eng = Engine()
    results = []

    def proc():
        value = yield eng.timeout(12)
        results.append((eng.now, value))

    eng.process(proc())
    eng.run()
    assert results == [(12, None)]


def valued(eng, delay, value):
    """An event that succeeds with ``value`` ``delay`` cycles from now."""
    done = eng.event()
    eng.schedule(delay, done.succeed, value)
    return done


def test_any_of_returns_first_winner():
    eng = Engine()
    results = []

    def proc():
        winner = yield eng.any_of([valued(eng, 50, "slow"),
                                   valued(eng, 10, "fast")])
        results.append((eng.now, winner))

    eng.process(proc())
    eng.run()
    assert results == [(10, (1, "fast"))]


def test_all_of_waits_for_everything():
    eng = Engine()
    results = []

    def proc():
        values = yield eng.all_of([valued(eng, 5, "a"), valued(eng, 20, "b")])
        results.append((eng.now, values))

    eng.process(proc())
    eng.run()
    assert results == [(20, ["a", "b"])]


def test_unhandled_process_error_aborts_run():
    eng = Engine()

    def bad():
        yield 1
        raise RuntimeError("model bug")

    eng.process(bad())
    with pytest.raises(SimulationError):
        eng.run()


def test_raising_callback_mid_cycle_requeues_the_rest_of_its_bucket():
    """Three entries stamped for one cycle, the second raises: the error
    propagates, the third stays pending for that cycle and fires on the
    next run() before the cycle's ring entries."""
    eng = Engine()
    log = []

    def first(_):
        log.append("first")
        eng.schedule(0, lambda _: log.append("ring"))

    def second(_):
        log.append("second")
        raise RuntimeError("model bug")

    eng.schedule(5, first)
    eng.schedule(5, second)
    eng.schedule(5, lambda _: log.append("third"))
    with pytest.raises(RuntimeError):
        eng.run()
    assert log == ["first", "second"]
    assert (eng.now, eng.peek_next(), eng.pending_events()) == (5, 5, 2)
    assert not eng.settled
    eng.run()
    assert log == ["first", "second", "third", "ring"]
    assert (eng.now, eng.pending_events()) == (5, 0) and eng.settled


def test_joined_process_error_propagates_to_parent_not_engine():
    eng = Engine()
    caught = []

    def bad():
        yield 1
        raise RuntimeError("child failed")

    def parent():
        try:
            yield eng.process(bad())
        except RuntimeError as err:
            caught.append(str(err))

    eng.process(parent())
    eng.run()
    assert caught == ["child failed"]


def test_interrupt_raises_inside_process():
    eng = Engine()
    log = []

    def victim():
        try:
            yield 100
            log.append("completed")
        except Interrupt as intr:
            log.append(("interrupted", eng.now, intr.cause))

    p = eng.process(victim())
    eng.schedule(40, lambda _: p.interrupt("preempt"))
    eng.run()
    assert log == [("interrupted", 40, "preempt")]


def test_interrupt_dead_process_is_noop():
    eng = Engine()

    def quick():
        yield 1

    p = eng.process(quick())
    eng.run()
    p.interrupt()
    eng.run()
    assert not p.alive


def test_interrupted_process_can_continue():
    eng = Engine()
    log = []

    def resilient():
        try:
            yield 100
        except Interrupt:
            pass
        yield 5
        log.append(eng.now)

    p = eng.process(resilient())
    eng.schedule(10, lambda _: p.interrupt())
    eng.run()
    assert log == [15]


def test_yielding_garbage_fails_the_process():
    eng = Engine()

    def bad():
        yield "not a command"

    p = eng.process(bad())
    with pytest.raises(SimulationError, match="yielded str"):
        eng.run_until_done(p.done)
    assert p.done.failed


def test_negative_delay_fails_the_process():
    eng = Engine()

    def bad():
        yield -5

    p = eng.process(bad())
    with pytest.raises(SimulationError, match="negative delay -5"):
        eng.run_until_done(p.done)
    assert p.done.failed


def test_process_requires_generator():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.process(lambda: None)  # type: ignore[arg-type]


def test_run_until_done_returns_value():
    eng = Engine()

    def proc():
        yield 3
        return "ok"

    p = eng.process(proc())
    assert eng.run_until_done(p.done) == "ok"


def test_run_until_done_reraises_failure():
    eng = Engine()

    def proc():
        yield 3
        raise KeyError("nope")

    p = eng.process(proc())
    with pytest.raises(KeyError):
        eng.run_until_done(p.done)


def test_run_until_done_detects_drained_queue():
    eng = Engine()
    ev = eng.event("never")
    with pytest.raises(SimulationError):
        eng.run_until_done(ev)


def test_many_processes_interleave_deterministically():
    eng = Engine()
    log = []

    def worker(ident, period):
        for _ in range(3):
            yield period
            log.append((eng.now, ident))

    eng.process(worker("a", 2))
    eng.process(worker("b", 3))
    eng.run()
    # At t=6 both wake; b's wake was scheduled first (at t=3, vs. a's at
    # t=4), so FIFO tie-breaking runs b first — deterministic across runs.
    assert log == [
        (2, "a"),
        (3, "b"),
        (4, "a"),
        (6, "b"),
        (6, "a"),
        (9, "b"),
    ]


def test_global_callback_order_is_pinned():
    """Timer waits, raw 0-delay callbacks and event wake-ups in one run:
    within a cycle heap entries (scheduled in earlier cycles) run before
    the same-cycle ring, and the ring is FIFO.  The log is the order the
    heap-only, event-per-yield engine produced — byte-identical simulation
    results hinge on it."""
    eng = Engine()
    log = []

    def worker(tag, delays):
        for d in delays:
            yield d
            log.append(("worker", tag, eng.now))

    def poker(tag):
        # mixes raw 0-delay callbacks with timer waits in one process
        for i in range(5):
            eng.schedule(0, lambda _, i=i: log.append(("cb", tag, i, eng.now)))
            yield 2

    shared = eng.event("shared")

    def waiter():
        value = yield shared
        log.append(("woke", value, eng.now))
        yield 0
        log.append(("woke+ring", eng.now))

    def firer():
        yield 7
        shared.succeed("fired")
        log.append(("firer", eng.now))

    eng.process(worker("a", [3, 0, 0, 2, 1]))
    eng.process(worker("b", [1, 1, 1, 0, 4]))
    eng.process(poker("p"))
    eng.process(waiter())
    eng.process(firer())
    eng.run(until=40)
    assert log == [
        ("cb", "p", 0, 0), ("worker", "b", 1), ("worker", "b", 2),
        ("cb", "p", 1, 2), ("worker", "a", 3), ("worker", "b", 3),
        ("worker", "a", 3), ("worker", "b", 3), ("worker", "a", 3),
        ("cb", "p", 2, 4), ("worker", "a", 5), ("worker", "a", 6),
        ("cb", "p", 3, 6), ("firer", 7), ("worker", "b", 7),
        ("woke", "fired", 7), ("woke+ring", 7), ("cb", "p", 4, 8),
    ]


def test_any_of_detaches_losers_when_winner_triggers():
    eng = Engine()
    winner = eng.event("winner")
    loser = eng.event("loser")
    combined = eng.any_of([winner, loser])
    winner.succeed("w")
    eng.run()
    assert combined.triggered
    assert combined.value == (0, "w")
    # the loser must not keep a callback pinning the combined event alive
    assert loser._callbacks == []
    # and a late trigger of the loser is inert
    loser.succeed("late")
    eng.run()
    assert combined.value == (0, "w")


def test_any_of_detaches_pending_on_failure():
    eng = Engine()
    failing = eng.event("failing")
    pending = eng.event("pending")
    combined = eng.any_of([failing, pending])
    failing.fail(SimulationError("boom"))
    eng.run()
    assert combined.failed
    assert pending._callbacks == []


def test_interrupt_during_timer_wait_does_not_double_resume():
    """A stale fast-path timer entry left in the queue by an interrupt must
    not fire a second resume when its cycle comes up."""
    eng = Engine()
    log = []

    def sleeper():
        try:
            yield 10
            log.append(("slept", eng.now))
        except Interrupt:
            log.append(("interrupted", eng.now))
            yield 20
            log.append(("resumed", eng.now))

    proc = eng.process(sleeper())

    def interrupter():
        yield 4
        proc.interrupt("wake")

    eng.process(interrupter())
    eng.run()
    assert log == [("interrupted", 4), ("resumed", 24)]


# -- windowed execution (PDES building blocks) -------------------------------


def test_peek_next_empty_engine():
    eng = Engine()
    assert eng.peek_next() is None


def test_peek_next_reports_heap_head():
    eng = Engine()
    eng.schedule(7, lambda _: None)
    eng.schedule(3, lambda _: None)
    assert eng.peek_next() == 3


def test_peek_next_reports_now_for_same_cycle_work():
    eng = Engine()
    eng.run(until=5)
    eng.schedule(0, lambda _: None)
    eng.schedule(9, lambda _: None)
    # a zero-delay callback is due this cycle, so "next" is now
    assert eng.peek_next() == 5


def test_run_window_executes_strictly_before_barrier():
    eng = Engine()
    fired = []
    for delay in (0, 3, 9, 10, 11):
        eng.schedule(delay, lambda _, d=delay: fired.append(d))
    eng.run_window(10)
    # events at the barrier cycle itself stay queued for the next window
    assert fired == [0, 3, 9]
    assert eng.now == 10
    assert eng.peek_next() == 10


def test_run_window_parks_clock_on_empty_queue():
    eng = Engine()
    eng.run_window(500)
    assert eng.now == 500
    assert eng.peek_next() is None


def test_run_windows_tile_with_no_gap_or_double_execution():
    eng = Engine()
    fired = []
    for delay in range(0, 30):
        eng.schedule(delay, lambda _, d=delay: fired.append(d))
    for barrier in (10, 20, 30, 31):
        eng.run_window(barrier)
    assert fired == list(range(30))
    assert eng.now == 31


def test_run_window_to_current_cycle_is_noop():
    eng = Engine()
    eng.run(until=8)
    fired = []
    eng.schedule(0, lambda _: fired.append("x"))
    eng.run_window(8)
    assert not fired
    assert eng.now == 8


def test_run_window_rejects_past_barrier():
    eng = Engine()
    eng.run(until=10)
    with pytest.raises(SimulationError):
        eng.run_window(9)


def test_run_window_preserves_cross_window_process_state():
    eng = Engine()
    log = []

    def worker():
        for i in range(4):
            yield 6
            log.append((i, eng.now))

    eng.process(worker())
    eng.run_window(10)
    assert log == [(0, 6)]
    eng.run_window(20)
    assert log == [(0, 6), (1, 12), (2, 18)]
    eng.run_window(30)
    assert log == [(0, 6), (1, 12), (2, 18), (3, 24)]


# -- the ordering contract against a reference engine ------------------------


class ReferenceEngine:
    """The ordering rule as a ``(time, seq)`` heap plus a FIFO ring: a
    cycle's heap entries fire before its ring entries, a run stops after
    ``until``'s entries, a window parks on its barrier unrun."""

    def __init__(self):
        self.now, self.seq, self.heap, self.ring = 0, 0, [], deque()
        self.settled_at = -1

    @property
    def settled(self):
        return self.settled_at >= self.now

    def schedule(self, delay, callback, arg=None):
        if delay == 0:
            self.ring.append((callback, arg))
            return
        self.seq += 1
        heapq.heappush(self.heap, (self.now + delay, self.seq, callback, arg))

    def run(self, until):
        while True:
            if self.heap and (not self.ring or self.heap[0][0] <= self.now):
                if self.heap[0][0] > until:
                    break
                self.now, _, callback, arg = heapq.heappop(self.heap)
            elif self.ring and self.now <= until:
                self.settled_at = self.now
                callback, arg = self.ring.popleft()
            else:
                break
            callback(arg)
        self.now = max(self.now, until)
        if not (self.heap and self.heap[0][0] <= self.now):
            self.settled_at = self.now

    def run_window(self, end):
        if end > self.now:
            self.run(end - 1)
            self.now = end

    def peek_next(self):
        if self.ring:
            return self.now
        return self.heap[0][0] if self.heap else None

    def pending_events(self):
        return len(self.heap) + len(self.ring)


_DELAYS = st.integers(0, 4)
_STEPS = st.one_of(
    st.tuples(st.just("schedule"), _DELAYS),
    st.tuples(st.sampled_from(["run", "window"]), st.integers(0, 6)),
)


def _play(engine, spawns, steps):
    """Drive ``engine`` through ``steps``; every callback logs ``(cycle,
    tag, settled)`` and, for the first three generations, schedules the
    children ``spawns`` assigns its tag.  Returns the firing log and the
    engine's ``(now, peek_next, pending_events, settled)`` at every stop."""
    log, stops, tags = [], [], count()

    def fire(arg):
        tag, generation = arg
        log.append((engine.now, tag, engine.settled))
        if generation < 3:
            for delay in spawns[tag % len(spawns)]:
                engine.schedule(delay, fire, (next(tags), generation + 1))

    for op, value in steps:
        if op == "schedule":
            engine.schedule(value, fire, (next(tags), 0))
            continue
        if op == "run":
            engine.run(until=engine.now + value)
        else:
            engine.run_window(engine.now + value)
        stops.append((engine.now, engine.peek_next(), engine.pending_events(),
                       engine.settled))
    engine.run(until=engine.now + 64)
    return log, stops


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_DELAYS, max_size=3), min_size=1, max_size=6),
       st.lists(_STEPS, max_size=40))
def test_firing_order_matches_the_time_seq_reference(spawns, steps):
    """Schedules of delay 0-4, callbacks that schedule more, bounded run()
    and run_window() stops, and schedules at a parked barrier: the engine
    fires what a ``(time, seq)`` heap plus ring fires, in the same order,
    and reports the same ``peek_next()`` / ``pending_events()`` /
    ``settled`` at every stop."""
    assert _play(Engine(), spawns, steps) == _play(ReferenceEngine(), spawns, steps)
