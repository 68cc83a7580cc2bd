"""Tier-1 shapes of the two S1 library scenarios, the engines and the
call counter the budget tests count with, the NoC's credit reads, the
transport rigs' mux wiring, and a front-end request as an event.

A short run mostly simulates idle probing: the default ``start_at`` parks
a deployed cluster for ~0.6M cycles and the default drain for another
0.42M.  These variants open traffic right after deploy settles (~1.42M
cycles), size the drain to the run and compress the timelines — rates,
services and front-end fields are the library's — so the tests that run
them a dozen times stay inside the tier-1 budget.
"""

import gc
from collections import Counter
from dataclasses import replace

import pytest

from perf.trace import kind_of, layer_of, owner_code
from repro.errors import AdmissionRejected
from repro.loadgen import ChaosAction, get_scenario
from repro.net import ReliableMux
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


def credits_with_the_wire(router, port):
    """An output port's credits, per VC, plus those still in the timed
    inbox."""
    counts = list(router._out[port].credits)
    for _landing, row_port, vc in router._credits_in:
        if row_port == port:
            counts[vc] += 1
    return counts


def inject_credits_with_the_wire(ni):
    """An interface's injection credits, per VC, plus those on the wire."""
    counts = list(ni._inject_credits)
    for _landing, vc in ni._credits_in:
        counts[vc] += 1
    return counts


def attach_mux(eng, fabric, mac, on_payload, window=4, timeout=2_000):
    """``mac``'s connections: a ``ReliableMux`` wired to the fabric."""
    mux = ReliableMux(eng, fabric.transmit, mac, on_payload,
                      window=window, timeout=timeout)
    fabric.attach(mac, mux.deliver_frame)
    return mux


def submitted(frontend, service, **request):
    """``frontend.submit(service, **request)`` as an engine event: it
    succeeds with the reply body, and fails with ``AdmissionRejected``
    when the backlog is full and the request is dropped."""
    done = frontend.engine.event(f"submit:{service}")
    if not frontend.submit(service, on_done=done.succeed, **request):
        done.fail(AdmissionRejected(f"{service!r}: the backlog is full"))
    return done


def count_calls(run):
    """``((calls, events), frames)`` of ``run()``: how many times it
    entered a ``def`` under ``repro/``, how many ``Event`` objects it built
    and its other Python frames by kind (the rule of ``python
    tools/funcs.py calls``)."""
    layers, frames, events = _counted(run)
    return (sum(layers.values()), events), frames


def count_calls_by_layer(run):
    """The ``def`` entries of :func:`count_calls`, per layer as
    ``perf.trace`` names them."""
    return _counted(run)[0]


def _counted(run):
    """``tools.funcs.count_calls(run)`` with the cycle collector off: a
    collection would close generators that earlier tests left suspended,
    and each close enters their frames, so the count would depend on the
    tests before."""
    gc.collect()
    gc.disable()
    try:
        return tool_count_calls(run)
    finally:
        gc.enable()


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
