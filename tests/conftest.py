"""Tier-1 shapes of the two S1 library scenarios, and the engines and the
call counter the budget tests count with.

A short run mostly simulates idle probing: the default ``start_at`` parks
a deployed cluster for ~0.6M cycles and the default drain for another
0.42M.  These variants open traffic right after deploy settles (~1.42M
cycles), size the drain to the run and compress the timelines — rates,
services and front-end fields are the library's — so the tests that run
them a dozen times stay inside the tier-1 budget.
"""

from collections import Counter
from dataclasses import replace

import pytest

from perf.trace import kind_of, layer_of, owner_code
from repro.loadgen import ChaosAction, get_scenario
from repro.sim import Engine
from tools.funcs import count_calls as tool_count_calls


class CountingEngine(Engine):
    """Counts every ``schedule()`` (the event budget of a run) and how many
    of them went to the same-cycle ring (``delay == 0``; the rest are
    bucket entries)."""

    __slots__ = ("schedules", "ring")

    def __init__(self):
        super().__init__()
        self.schedules = 0
        self.ring = 0

    def schedule(self, delay, callback, arg=None):
        self.schedules += 1
        if delay == 0:
            self.ring += 1
        super().schedule(delay, callback, arg)


class TaggingEngine(Engine):
    """Books every scheduled callback the way the benchmark's tagger
    (``perf.trace``) would: by the layer and the hot kind of its owner."""

    __slots__ = ("layers", "kinds")

    def __init__(self):
        super().__init__()
        self.layers, self.kinds = Counter(), Counter()

    def schedule(self, delay, callback, arg=None):
        code = owner_code(callback)
        self.layers[layer_of(code)] += 1
        self.kinds[kind_of(code)] += 1
        super().schedule(delay, callback, arg)


def frame_switch(endpoint):
    """The fabric callback of a bare ``ReliableEndpoint``: the
    datagram-kind switch ``ReliableMux.deliver_frame`` makes for the
    endpoints it owns, for rigs that wire one endpoint per MAC (a mux takes
    no ``mtu``, and the segmentation rigs vary it)."""
    def deliver(frame):
        dgram = frame.payload
        if dgram.kind == "ack":
            endpoint._handle_ack(dgram.seq)
        else:
            endpoint._handle_data(dgram)
    return deliver


def count_calls(run):
    """``((calls, events), frames)`` of ``run()``: how many times it
    entered a ``def`` under ``repro/``, how many ``Event`` objects it built
    and its other Python frames by kind (the rule of ``python
    tools/funcs.py calls``)."""
    layers, frames, events = tool_count_calls(run)
    return (sum(layers.values()), events), frames


@pytest.fixture(scope="session")
def scale_small():
    """``scale_out`` on 2 boards, a third of the window (~370 offered)."""
    return replace(get_scenario("scale_out"), duration=100_000,
                   start_at=1_500_000, drain=100_000)


@pytest.fixture(scope="session")
def kill_small():
    """``board_kill`` compressed 4x: board 1 dies at 50k of 150k cycles."""
    return replace(get_scenario("board_kill"), duration=150_000,
                   start_at=1_500_000, drain=100_000,
                   chaos=(ChaosAction(at=50_000, action="kill", board=1),))
