"""The express lane against the flit path it stands in for.

Every case is run twice, lane on and lane off (``network._LANE`` is the
only switch, and only tests touch it): per-packet cycles, the end state of
every router and interface, and the stats registry must be identical.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.noc import Mesh2D, Network
from repro.noc import network as network_module
from repro.sim import Engine


@st.composite
def cases(draw):
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if width * height == 1:
        height = 2
    nodes = width * height
    node = st.integers(0, nodes - 1)
    hop = draw(st.integers(1, 3))
    depth = draw(st.integers(1, 6))
    num_vcs = draw(st.integers(1, 2))
    # sparse, bursty or back-to-back: the gap scale decides how often a
    # packet has the fabric to itself
    gap = st.integers(0, draw(st.sampled_from([0, 3, 15, 60])))
    senders = draw(st.lists(
        st.tuples(node, st.booleans(), st.lists(
            st.tuples(gap, node, st.integers(0, 19), st.integers(0, 1)),
            min_size=1, max_size=8)),
        min_size=1, max_size=4))
    sinks = draw(st.lists(st.sampled_from([0, 0, 0, 7, 40]),
                          min_size=nodes, max_size=nodes))
    cycle = st.integers(1, 150)
    span = st.integers(1, 40)
    chaos = draw(st.lists(
        st.tuples(st.just("stall"), cycle, st.booleans(), node, span),
        max_size=5))
    return dict(width=width, height=height, hop=hop, depth=depth,
                credit=draw(st.sampled_from([0, 1, 1, 2, 3])),
                num_vcs=num_vcs, vc_classes=draw(st.integers(1, num_vcs)),
                queue=draw(st.integers(1, 3)), senders=senders, sinks=sinks,
                chaos=chaos, sample=draw(st.sampled_from([0, 0, 1, 9, 31])))


def run(case, lane):
    """One run of ``case``; everything an observer could compare."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network_module, "_LANE", lane)
        return _run(case)


def _run(case):
    eng = Engine()
    net = Network(eng, Mesh2D(case["width"], case["height"]),
                  num_vcs=case["num_vcs"], vc_classes=case["vc_classes"],
                  buffer_depth=case["depth"], hop_latency=case["hop"],
                  credit_latency=case["credit"],
                  delivery_queue_depth=case["queue"])
    nodes = case["width"] * case["height"]
    packets, done_at, series = {}, {}, []

    def apply(kind, node, *args):
        assert kind == "stall"
        net.router(node).stall(*args)

    def later(at, kind, node, *args):
        yield at
        apply(kind, node, *args)

    # bare callbacks first: the heap fires them before anything the run
    # itself schedules for the same cycle
    for kind, at, from_process, node, *args in case["chaos"]:
        if from_process:
            eng.process(later(at, kind, node, *args))
        else:
            eng.schedule(at, lambda _a, k=kind, n=node, a=args:
                         apply(k, n, *a))

    def sender(index, src, blocking, sends):
        ni = net.interface(src)
        for count, (gap, dst, flits, vc_class) in enumerate(sends):
            yield gap
            pkt = net.make_packet(src, dst, payload_bytes=16 * flits,
                                  vc_class=vc_class)
            packets[index, count] = pkt
            sent = ni.send_packet(pkt)
            sent.add_callback(lambda _e, key=(index, count):
                              done_at.__setitem__(key, eng.now))
            if blocking:
                yield sent

    def sink(node, think):
        ni = net.interface(node)
        while True:
            yield ni.recv()
            yield think

    def sampler(every):
        # the mid-flight readers: watchdog, energy model, telemetry
        while True:
            series.append((eng.now, net.total_flits_forwarded(),
                           net.in_flight_packets(),
                           [net.router(n).flits_forwarded
                            for n in range(nodes)],
                           [net.router(n).buffered_flits
                            for n in range(nodes)]))
            yield every

    for index, (src, blocking, sends) in enumerate(case["senders"]):
        eng.process(sender(index, src, blocking, sends))
    for node, think in enumerate(case["sinks"]):
        eng.process(sink(node, think))
    if case["sample"]:
        eng.process(sampler(case["sample"]))
    eng.run(until=4_000)
    assert net.in_flight_packets() == 0, "the fabric never drained"

    now = eng.now
    routers = []
    for n in range(nodes):
        router = net.router(n)
        router._land(now)
        routers.append((
            router.flits_forwarded, router.buffered_flits,
            router.stalled_until, router.stalls_injected,
            {port.name: (out.credits, out.vc_owner, out.arbiter._pointer,
                         out.flits_sent)
             for port, out in router._out.items()},
            {port.name: [(len(ivc.buffer), ivc.out_port, ivc.out_vc,
                          ivc.active_pid) for ivc in ivcs]
             for port, ivcs in router._in.items()},
        ))
    interfaces = []
    for n in range(nodes):
        ni = net.interface(n)
        ni._land_credits(now)
        interfaces.append((
            ni.packets_sent, ni.packets_received,
            ni._inject_credits, ni._current_vc, len(ni._inject_flits),
            ni._partial, len(ni._eject_buffer), len(ni._flits_in),
            ni._held_vc is None, ni.inject_backlog, len(ni.delivered),
        ))
    return dict(
        packets={key: (pkt.injected_at, pkt.delivered_at, pkt.hops)
                 for key, pkt in packets.items()},
        done_at=done_at, routers=routers, interfaces=interfaces,
        stats=net.stats.snapshot(), series=series,
        lane=(net.express_packets, net.express_demotions),
    )


def assert_same(on, off):
    for field in ("packets", "done_at", "routers", "interfaces", "stats",
                  "series"):
        assert on[field] == off[field], field
    assert off["lane"] == (0, 0)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_lane_on_and_off_are_the_same_network(case):
    assert_same(run(case, True), run(case, False))


def lone_packet(**extra):
    """One 7-flit packet corner to corner on an idle 2x2 mesh."""
    case = dict(width=2, height=2, hop=2, depth=4, credit=1, num_vcs=2,
                vc_classes=1,
                queue=16, senders=[(0, False, [(0, 3, 6, 0)])],
                sinks=[0, 0, 0, 0], chaos=[], sample=0)
    case.update(extra)
    return case


def test_a_lone_packet_takes_the_lane_and_lands_on_the_zero_load_cycle():
    on = run(lone_packet(), True)
    assert on["lane"] == (1, 0)
    assert on["packets"] == {(0, 0): (0, 12, 2)}
    assert on["done_at"] == {(0, 0): 7}
    assert_same(on, run(lone_packet(), False))


def test_a_sampler_every_cycle_reads_the_flit_path_series():
    """Per-router counters, occupancy and the network totals read mid-flight
    are the flit path's, cycle by cycle."""
    on, off = (run(lone_packet(sample=1), lane) for lane in (True, False))
    assert on["lane"] == (1, 1)  # the first mid-flight read demotes
    assert [row[1] for row in on["series"][:12]] == [
        0, 2, 4, 6, 9, 12, 15, 17, 19, 20, 21, 21]
    assert_same(on, off)


@pytest.mark.parametrize("from_process", [True, False])
@pytest.mark.parametrize("at", range(1, 12))
def test_a_stall_on_the_route_at_any_cycle_of_the_flight(at, from_process):
    """Heap-fired chaos comes before the cycle's flits move, process-issued
    chaos after: the demoted packet loses exactly the cycles the flit path
    loses."""
    case = lone_packet(chaos=[("stall", at, from_process, 1, 25)])
    on, off = run(case, True), run(case, False)
    assert on["lane"] == (1, 1)
    assert_same(on, off)


def test_a_slow_sink_holds_the_next_packet_off_the_lane():
    """The ejector still holds the previous tail (delivery queue full), so
    the far router's LOCAL credits are not home: no closed form."""
    case = lone_packet(queue=1, sinks=[0, 0, 0, 200],
                       senders=[(0, True, [(0, 3, 6, 0)] * 4)])
    on, off = run(case, True), run(case, False)
    assert 0 < on["lane"][0] < 4
    assert_same(on, off)
