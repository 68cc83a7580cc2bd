"""Unit tests for bounded channels: blocking, backpressure, FIFO order."""

import pytest

from repro.errors import SimulationError
from repro.sim import Channel, Engine


def test_put_then_get_same_cycle():
    eng = Engine()
    ch = Channel(eng, capacity=4)
    got = []

    def producer():
        yield ch.put("x")

    def consumer():
        got.append((yield ch.get()))

    eng.process(producer())
    eng.process(consumer())
    eng.run()
    assert got == ["x"]


def test_get_blocks_until_put():
    eng = Engine()
    ch = Channel(eng, capacity=1)
    got = []

    def consumer():
        item = yield ch.get()
        got.append((eng.now, item))

    def producer():
        yield 25
        yield ch.put("late")

    eng.process(consumer())
    eng.process(producer())
    eng.run()
    assert got == [(25, "late")]


def test_put_blocks_when_full():
    eng = Engine()
    ch = Channel(eng, capacity=1)
    times = []

    def producer():
        yield ch.put(1)
        times.append(eng.now)
        yield ch.put(2)
        times.append(eng.now)

    def consumer():
        yield 10
        yield ch.get()

    eng.process(producer())
    eng.process(consumer())
    eng.run()
    assert times == [0, 10]


def test_fifo_ordering_preserved():
    eng = Engine()
    ch = Channel(eng, capacity=100)
    got = []

    def producer():
        for i in range(20):
            yield ch.put(i)

    def consumer():
        for _ in range(20):
            got.append((yield ch.get()))
            yield 1

    eng.process(producer())
    eng.process(consumer())
    eng.run()
    assert got == list(range(20))


def test_multiple_getters_are_fifo_fair():
    eng = Engine()
    ch = Channel(eng, capacity=10)
    got = []

    def consumer(ident):
        item = yield ch.get()
        got.append((ident, item))

    def producer():
        yield 5
        yield ch.put("first")
        yield ch.put("second")

    eng.process(consumer("a"))
    eng.process(consumer("b"))
    eng.process(producer())
    eng.run()
    assert got == [("a", "first"), ("b", "second")]


def test_try_put_and_try_get():
    eng = Engine()
    ch = Channel(eng, capacity=1)
    assert ch.try_put("a") is True
    assert ch.try_put("b") is False
    ok, item = ch.try_get()
    assert (ok, item) == (True, "a")
    ok, item = ch.try_get()
    assert ok is False


def test_capacity_validation():
    eng = Engine()
    with pytest.raises(SimulationError):
        Channel(eng, capacity=0)


def test_unbounded_channel_never_blocks_put():
    eng = Engine()
    ch = Channel(eng, capacity=None)

    def producer():
        for i in range(1000):
            yield ch.put(i)

    eng.process(producer())
    eng.run()
    assert len(ch) == 1000
    assert eng.now == 0
