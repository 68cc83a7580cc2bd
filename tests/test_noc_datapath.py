"""The NoC datapath as callback state machines over timed inboxes: event
budget (express lane and flit path), conservation and pacing invariants,
stall corner cases, typed datapath errors."""

import hashlib
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.noc import Mesh2D, Network, Torus2D
from repro.noc import network as network_module
from repro.noc.flit import Flit, FlitKind
from repro.noc.router import NEVER
from repro.noc.topology import Port
from repro.sim import Engine

from tests.conftest import (
    CountingEngine,
    TaggingEngine,
    count_calls_by_layer,
    credits_with_the_wire,
    inject_credits_with_the_wire,
)


def sink(net, node, log):
    ni = net.interface(node)
    while True:
        pkt = yield ni.recv()
        log.append((node, pkt.src, pkt.pid, pkt.delivered_at))


# -- (a) event budget ------------------------------------------------------


def single_packet():
    eng = CountingEngine()
    net = Network(eng, Mesh2D(2, 2))
    sent = net.interface(0).send(3, payload_bytes=96)
    eng.run()
    pkt = sent.value
    assert eng.pending_events() == 0
    assert (pkt.size_flits, pkt.injected_at, pkt.delivered_at) == (7, 0, 12)
    assert net.total_flits_forwarded() == 21
    return eng, net


@pytest.mark.identity
def test_event_budget_single_packet():
    """One 96-byte packet corner to corner on a 2x2 mesh costs exactly this
    many engine events; a datapath change that drifts the count (or the
    delivery cycle) must say so here."""
    eng, net = single_packet()
    assert eng.schedules == SINGLE_PACKET_SCHEDULES
    assert (net.express_packets, net.express_demotions) == (1, 0)


@pytest.mark.identity
def test_event_budget_single_packet_flit_path(monkeypatch):
    """The same packet flit by flit (the express lane switched off): same
    cycles, the reference datapath's budget."""
    monkeypatch.setattr(network_module, "_LANE", False)
    eng, net = single_packet()
    assert eng.schedules == SINGLE_PACKET_FLIT_PATH_SCHEDULES
    assert net.express_packets == 0


def overlapping_packets(engine_cls=None):
    """A second packet starts while the first is mid-flight and crosses it
    head-on (0 -> 1 -> 3 against 1 -> 0 -> 2)."""
    eng = (engine_cls or CountingEngine)()
    net = Network(eng, Mesh2D(2, 2))
    first = net.interface(0).send(3, payload_bytes=96)
    second = []
    eng.schedule(5, lambda _a: second.append(
        net.interface(1).send(2, payload_bytes=96)))
    eng.run()
    assert eng.pending_events() == 0 and net.in_flight_packets() == 0
    assert net.total_flits_forwarded() == 42
    cycles = [(ev.value.injected_at, ev.value.delivered_at)
              for ev in (first, second[0])]
    return eng, net, cycles


@pytest.mark.identity
def test_event_budget_two_overlapping_packets(monkeypatch):
    """The second start takes the first packet off the express lane: both
    finish flit by flit, on the cycles the flit path alone gives them."""
    eng, net, cycles = overlapping_packets()
    assert cycles == [(0, 12), (5, 18)]
    assert (net.express_packets, net.express_demotions) == (1, 1)
    assert eng.schedules == OVERLAPPING_SCHEDULES
    monkeypatch.setattr(network_module, "_LANE", False)
    eng, net, reference = overlapping_packets()
    assert reference == cycles
    assert eng.schedules == OVERLAPPING_FLIT_PATH_SCHEDULES


def seeded_flood():
    """Every node of a 4x4 mesh sends 96-byte packets to seeded random
    nodes as fast as it can, for 300 cycles."""
    eng = CountingEngine()
    net = Network(eng, Mesh2D(4, 4))
    log = []

    def sender(node):
        ni = net.interface(node)
        rng = random.Random(1000 + node)
        while True:
            dst = rng.randrange(15)
            yield ni.send(dst + (dst >= node), payload_bytes=96)

    for node in range(16):
        eng.process(sender(node))
        eng.process(sink(net, node, log))
    eng.run(until=300)
    return eng, net, log


@pytest.mark.identity
def test_event_budget_seeded_flood():
    """A seeded 4x4 flood for 300 cycles: schedules, flits and deliveries
    are exact, so an accidental extra wake-up or a second pass per cycle
    fails tier-1 instead of only moving a benchmark."""
    eng, net, log = seeded_flood()
    assert len(log) == FLOOD_DELIVERED
    assert sum(at for *_rest, at in log) == FLOOD_DELIVERY_CYCLE_SUM
    assert net.total_flits_forwarded() == FLOOD_FLITS_FORWARDED
    assert net.in_flight_packets() == FLOOD_IN_FLIGHT
    assert eng.schedules == FLOOD_SCHEDULES
    # a saturated mesh is never idle: only the very first packet starts on
    # the lane, and the second start takes it off again
    assert (net.express_packets, net.express_demotions) == (1, 1)


def test_calls_of_the_seeded_flood():
    """The host work of the flood: entries into a ``def`` under
    ``repro/noc/`` (interpreter-independent, so pinned exactly).  A call
    that comes back on the flit path — a helper per step or per flit, a
    router step split in two — fails here, not only in a benchmark."""
    layers = count_calls_by_layer(seeded_flood)
    assert layers["noc"] == FLOOD_NOC_CALLS


def test_overlapping_packets_book_all_four_noc_event_kinds():
    """The benchmark's layer tagger (``perf.trace``) on the callbacks of the
    two overlapping packets: every NoC event is a router step, an injector
    or ejector step, or a link callback (the express lane's checkpoints),
    none is booked to ``sim`` — and each of the four kinds still occurs."""
    eng, _net, _cycles = overlapping_packets(TaggingEngine)
    noc_kinds = ("noc.router_run", "noc.ni_injector", "noc.ni_ejector",
                 "noc.link_callbacks")
    assert all(eng.kinds[kind] > 0 for kind in noc_kinds), eng.kinds
    assert eng.layers["noc"] > 0 and eng.layers["sim"] == 0
    assert sum(eng.kinds[kind] for kind in noc_kinds) == eng.layers["noc"]


#: the budgets.  ISSUE 19 (links off the heap, express lane) re-pinned them
#: once, on purpose: 118 -> 4 for the lone packet (30 flit by flit), 48,068
#: -> 13,826 schedules for the flood, whose same-cycle order under
#: saturation moved with it (416 -> 420 delivered, cycle sum 65,402 ->
#: 66,016, 11,497 -> 11,579 flits forwarded; 40 in flight either way).
SINGLE_PACKET_SCHEDULES = 4
SINGLE_PACKET_FLIT_PATH_SCHEDULES = 30
OVERLAPPING_SCHEDULES = 56
OVERLAPPING_FLIT_PATH_SCHEDULES = 65
FLOOD_DELIVERED = 420
FLOOD_DELIVERY_CYCLE_SUM = 66_016
FLOOD_FLITS_FORWARDED = 11_579
FLOOD_IN_FLIGHT = 40
FLOOD_SCHEDULES = 13_826
#: the flood's calls into repro/noc/: 79,351 while the round-robin grant
#: was an arbiter's method and a router step three calls
FLOOD_NOC_CALLS = 46_345


# -- (a') flit-path goldens --------------------------------------------------
#
# One seeded 4x4 flood per flit-path configuration the benchmark's
# ``noc_flood`` (plain XY, 2 VCs) does not exercise.  Every
# grant, delivery cycle and engine schedule is pinned against literals
# captured on the bucketed allocator (``fast_wires`` on the tree before the
# credit latency became a constant), so a rewrite of the switch allocation
# or the wire rows must reproduce them, not re-pin them.

FLIT_PATH_CYCLES = 350


def flit_path_network(eng, case):
    if case == "one_vc":
        return Network(eng, Mesh2D(4, 4), num_vcs=1, buffer_depth=2)
    if case == "torus_dateline":
        return Network(eng, Torus2D(4, 4))
    if case == "fast_wires":
        return Network(eng, Mesh2D(4, 4), hop_latency=1)
    assert case == "stall"
    net = Network(eng, Mesh2D(4, 4))
    eng.schedule(150, lambda _a: net.router(9).stall(20))
    return net


def flit_path_flood(case):
    eng = CountingEngine()
    net = flit_path_network(eng, case)
    delivered = []

    def sender(node):
        ni = net.interface(node)
        rng = random.Random(2000 + node)
        while True:
            dst = rng.randrange(15)
            size = rng.choice((0, 48, 96))  # 1-, 4- and 7-flit packets
            yield ni.send(dst + (dst >= node), payload_bytes=size)

    def collect(node):
        ni = net.interface(node)
        while True:
            delivered.append((yield ni.recv()))

    for node in range(16):
        eng.process(sender(node))
        eng.process(collect(node))
    eng.run(until=FLIT_PATH_CYCLES)
    schedules = eng.schedules
    records = sorted((p.pid, p.src, p.dst, p.injected_at, p.delivered_at,
                      p.hops) for p in delivered)
    routers = [net.router(n) for n in range(16)]
    return {
        "delivered": len(records),
        "cycle_sum": sum(r[4] for r in records),
        "records": hashlib.sha256(repr(records).encode()).hexdigest()[:16],
        "forwarded": [r.flits_forwarded for r in routers],
        "pointers": " ".join(
            ",".join(str(r._out[p].pointer) for p in r.ports)
            for r in routers),
        "schedules": schedules,
    }


FLIT_PATH_GOLDENS = {
    "fast_wires": {
        "delivered": 890, "cycle_sum": 158_094, "records": "bb332f0a93ba72f8",
        "forwarded": [544, 846, 796, 603, 778, 1031, 1038, 824,
                      837, 1087, 1015, 844, 668, 911, 834, 650],
        "pointers": "5,1,3 5,1,3,3 5,0,2,1 0,1,1 7,0,1,3 8,5,1,2,5 "
                    "3,8,0,6,1 6,5,7,2 3,0,1,4 7,7,1,3,5 4,8,0,4,1 5,7,4,2 "
                    "4,0,1 0,6,1,6 3,5,7,2 3,0,1",
        "schedules": 17_611,
    },
    "one_vc": {
        "delivered": 437, "cycle_sum": 77_684, "records": "13cb11b201d22b5e",
        "forwarded": [237, 397, 403, 291, 365, 512, 547, 425,
                      373, 520, 542, 451, 269, 400, 353, 300],
        "pointers": "0,1,1 3,1,2,1 3,0,1,1 2,1,1 2,0,1,3 4,4,1,2,1 "
                    "4,3,0,0,3 2,3,0,1 2,0,1,2 2,4,0,2,3 4,0,0,2,1 3,3,2,1 "
                    "2,0,1 2,3,1,3 2,0,1,1 2,0,1",
        "schedules": 11_820,
    },
    "stall": {
        "delivered": 883, "cycle_sum": 159_974, "records": "6574a907ee1550dd",
        "forwarded": [567, 831, 809, 650, 783, 1043, 1045, 822,
                      829, 1043, 1009, 836, 658, 898, 832, 657],
        "pointers": "0,1,2 6,2,1,3 6,2,4,3 3,5,1 3,7,2,3 6,5,1,9,2 "
                    "7,8,9,3,6 6,7,4,2 0,0,1,5 4,8,9,3,5 3,9,0,4,5 3,7,4,2 "
                    "4,5,2 3,7,1,6 6,7,0,2 4,5,1",
        "schedules": 18_041,
    },
    "torus_dateline": {
        "delivered": 670, "cycle_sum": 120_692, "records": "5930fce86dee1ecc",
        "forwarded": [523, 539, 515, 509, 483, 500, 572, 545,
                      495, 503, 540, 591, 550, 551, 527, 685],
        "pointers": "7,9,2,9,1 7,1,1,9,1 9,9,2,3,2 3,2,9,9,2 9,9,9,1,1 "
                    "3,0,9,3,1 4,9,1,5,2 3,9,9,9,2 5,1,9,2,2 3,5,9,0,1 "
                    "9,1,1,9,1 7,9,1,3,2 3,9,1,3,2 9,9,2,3,1 3,9,2,9,1 "
                    "9,5,2,3,1",
        "schedules": 14_675,
    },
}


@pytest.mark.identity
@pytest.mark.parametrize("case", sorted(FLIT_PATH_GOLDENS))
def test_flit_path_goldens(case):
    """Delivered count, delivery-cycle sum, every delivered packet's
    ``(pid, src, dst, injected_at, delivered_at, hops)``, per-router
    forwarded flits, every final round-robin pointer and the engine's
    ``schedule()`` count — exact, per configuration."""
    assert flit_path_flood(case) == FLIT_PATH_GOLDENS[case]


# -- (b) conservation, credits, order and pacing ---------------------------


@st.composite
def traffic(draw):
    width, height = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    nodes = width * height
    node = st.integers(0, nodes - 1)
    cycle = st.integers(0, 120)
    sends = draw(st.lists(
        st.tuples(cycle, node, node, st.sampled_from([0, 16, 48, 96, 200])),
        min_size=1, max_size=40))
    stalls = draw(st.lists(
        st.tuples(cycle, node, st.integers(1, 25)), max_size=6))
    return (width, height, draw(st.integers(1, 2)), draw(st.integers(1, 4)),
            sends, stalls)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(traffic(), st.booleans())
def test_datapath_invariants_under_stalls_and_drops(case, lane):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network_module, "_LANE", lane)
        check_datapath_invariants(case, lane)


def check_datapath_invariants(case, lane):
    width, height, num_vcs, depth, sends, stalls = case
    eng = Engine()
    net = Network(eng, Mesh2D(width, height), num_vcs=num_vcs,
                  buffer_depth=depth)
    nodes = width * height
    routers = [net.router(n) for n in range(nodes)]
    nis = [net.interface(n) for n in range(nodes)]
    log = []
    for n in range(nodes):
        eng.process(sink(net, n, log))
    for at, src, dst, size in sends:
        eng.schedule(at, lambda _a, src=src, dst=dst, size=size:
                     nis[src].send(dst, payload_bytes=size))
    for at, n, cycles in stalls:
        eng.schedule(at, lambda _a, n=n, cycles=cycles:
                     routers[n].stall(cycles))

    ports = [out for r in routers for out in r._out.values()]
    sent_before = [0] * len(ports)

    cycle = 0
    while eng.pending_events():
        assert cycle < 5_000, "the fabric never drained"
        eng.run(until=cycle)  # exactly one cycle's events
        cycle += 1
        # link width: no output port forwards two flits in one cycle (a
        # packet on the express lane books its flits when it is delivered,
        # so the per-cycle count is the flit path's to show)
        sent_now = [out.flits_sent for out in ports]
        assert lane or all(b - a <= 1 for a, b in zip(sent_before, sent_now))
        sent_before = sent_now
        # conservation, counted at the interfaces
        injected = sum(ni.packets_sent for ni in nis)
        delivered = sum(ni.packets_received for ni in nis)
        assert injected - delivered == net.in_flight_packets()

    # quiescent: every packet arrived, every credit is home or a row in
    # its owner's inbox (nobody is woken to land a credit that unblocks
    # nothing), every machine is parked
    assert net.in_flight_packets() == 0
    assert len(log) == len(sends)
    assert all(credits_with_the_wire(r, port) == [depth] * num_vcs
               for r in routers for port in r._out)
    assert all(inject_credits_with_the_wire(ni) == [depth] * num_vcs
               for ni in nis)
    assert all(r.buffered_flits == 0 and not r._flits_in for r in routers)
    if num_vcs == 1:
        # one VC, deterministic routing: a channel is FIFO end to end
        # (pids are minted in send order)
        for dst in range(nodes):
            for src in range(nodes):
                pids = [pid for d, s, pid, _at in log if (d, s) == (dst, src)]
                assert pids == sorted(pids)


# -- (c) stalls and errors -------------------------------------------------


def one_packet(stall_at=None, stall=0, again=0):
    """Delivery cycle of a 7-flit packet 0 -> 1 with router 0 stalled."""
    eng = CountingEngine()
    net = Network(eng, Mesh2D(2, 1))
    router = net.router(0)
    if stall_at is not None:
        def freeze(_arg):
            router.stall(stall)
            if again:
                router.stall(again)
        eng.schedule(stall_at, freeze)
    sent = net.interface(0).send(1, payload_bytes=96)
    eng.run()
    assert eng.pending_events() == 0 and net.in_flight_packets() == 0
    return sent.value.delivered_at, router, eng


def test_stall_while_a_tick_is_pending_delays_by_the_stall():
    base, _router, _eng = one_packet()
    # cycle 3: the router moved a flit at 2 and its next pass is queued
    late, router, _eng = one_packet(stall_at=3, stall=20)
    assert late == base + 20
    assert router.stalls_injected == 1


def test_stall_while_parked_wakes_once_and_parks_again():
    eng = CountingEngine()
    net = Network(eng, Mesh2D(2, 1))
    router = net.router(0)
    router.stall(10)
    eng.run()
    # one wake, stamped for the end of the stall: nothing there, park
    assert (eng.now, eng.schedules, eng.pending_events()) == (10, 1, 0)
    sent = net.interface(0).send(1, payload_bytes=0)
    eng.run()
    assert sent.value.latency == net.zero_load_latency(0, 1)


def test_stall_twice_in_a_row_keeps_the_longer_one():
    base, _router, _eng = one_packet()
    for first, second in ((20, 5), (5, 20)):
        late, router, _eng = one_packet(stall_at=3, stall=first, again=second)
        assert late == base + 20
        assert router.stalls_injected == 2
    # the second stall costs no extra wake-up when it does not extend
    _at, _router, once = one_packet(stall_at=3, stall=20)
    _at, _router, twice = one_packet(stall_at=3, stall=20, again=5)
    assert once.schedules == twice.schedules


def test_a_stall_of_fewer_than_one_cycle_is_a_config_error():
    """``stall(0)`` would count a stall that freezes nothing and
    ``stall(-5)`` would arm a step in the past: both are refused, naming
    the router, and leave it as it was."""
    eng = CountingEngine()
    net = Network(eng, Mesh2D(2, 1))
    router = net.router(0)
    eng.schedule(100, lambda _a: router.stall(-5))
    with pytest.raises(ConfigError,
                       match=r"router0: a stall lasts >= 1 cycle, got -5"):
        eng.run()
    assert eng.now == 100
    with pytest.raises(ConfigError,
                       match=r"router0: a stall lasts >= 1 cycle, got 0"):
        router.stall(0)
    assert (router.stalls_injected, router.stalled_until) == (0, 0)
    assert eng.pending_events() == 0


def test_credit_to_an_empty_router_wakes_nobody(monkeypatch):
    """Router 1 returns the credits of the last flits of a packet router 0
    has already passed on: they stay rows in router 0's inbox, because a
    credit can only unblock a buffered flit, and no step is armed to land
    them."""
    monkeypatch.setattr(network_module, "_LANE", False)
    eng = CountingEngine()
    net = Network(eng, Mesh2D(2, 1))
    sent = net.interface(0).send(1, payload_bytes=96)
    eng.run()
    assert sent.value.delivered_at == 10 and eng.pending_events() == 0
    router = net.router(0)
    assert router._buffered == 0 and router._wake_at == NEVER
    assert [at for at, _port, _vc in router._credits_in] == [7, 8, 9]
    assert credits_with_the_wire(router, Port.EAST) == [4, 4]


def test_datapath_errors_abort_the_run_naming_component_and_cycle():
    """Rows written on a wire, and the receiver armed for them, as a grant
    does: the step that lands them raises."""
    def fresh():
        eng = Engine()
        net = Network(eng, Mesh2D(2, 1), buffer_depth=2)
        return eng, net, net.make_packet(0, 1, payload_bytes=96)

    # a credit for a slot that was never taken
    eng, net, _pkt = fresh()
    router = net.router(1)
    router._credits_in.append((5, Port.WEST, 0))
    router._arm(5)
    with pytest.raises(ConfigError,
                       match=r"router1: credit overflow on WEST vc0 at "
                             r"cycle 5"):
        eng.run()

    # three flits landing in a two-slot buffer
    eng, net, pkt = fresh()
    router = net.router(0)
    for flit in pkt.make_flits()[:3]:
        router._flits_in.append((7, Port.EAST, flit))
    router._arm(7)
    with pytest.raises(ConfigError,
                       match=r"router0: input buffer overflow on EAST vc0 "
                             r"at cycle 7"):
        eng.run()

    # a tail whose head never came: the ejector's own check, raised from
    # its callback straight out of Engine.run
    eng, net, pkt = fresh()
    ni = net.interface(1)
    ni._flits_in.append((8, Flit(kind=FlitKind.TAIL, packet=pkt, seq=6)))
    ni._arm_ejector(8)
    with pytest.raises(ConfigError,
                       match=r"ni1: reassembled wrong flit count for "
                             r"packet 1 at cycle 8"):
        eng.run()
