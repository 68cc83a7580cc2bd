"""Torus dateline routing tests: shortest-direction wrap, VC discipline,
deadlock freedom under ring pressure."""

import pytest

from repro.errors import ConfigError
from repro.noc import (
    Mesh2D,
    Network,
    Port,
    ProgressWatchdog,
    Torus2D,
    TorusXYRouting,
)
from repro.sim import Engine, RngPool


def torus_net(width=4, height=4, **kwargs):
    eng = Engine()
    kwargs.setdefault("num_vcs", 2)
    net = Network(eng, Torus2D(width, height), **kwargs)
    return eng, net


def send_and_measure(eng, net, src, dst, count=1, payload_bytes=0):
    hops = []

    def sender():
        ni = net.interface(src)
        for i in range(count):
            yield ni.send(dst, payload=i, payload_bytes=payload_bytes)

    def receiver():
        ni = net.interface(dst)
        for _ in range(count):
            pkt = yield ni.recv()
            hops.append(pkt.hops)

    eng.process(sender())
    p = eng.process(receiver())
    eng.run_until_done(p.done, limit=5_000_000)
    return hops


class TestShortestDirection:
    def test_wrap_link_used_when_shorter(self):
        eng, net = torus_net(4, 1)
        # 0 -> 3 is one WEST wrap hop, not three EAST hops
        assert send_and_measure(eng, net, 0, 3) == [1]

    def test_no_wrap_when_direct_is_shorter(self):
        eng, net = torus_net(4, 1)
        assert send_and_measure(eng, net, 0, 1) == [1]
        assert send_and_measure(eng, net, 0, 2) == [2]  # tie -> positive dir

    def test_all_pairs_hops_match_torus_distance(self):
        eng, net = torus_net(3, 3)
        topo = net.topo
        for src in topo.nodes():
            for dst in topo.nodes():
                if src == dst:
                    continue
                hops = send_and_measure(eng, net, src, dst)
                assert hops == [topo.hop_distance(src, dst)], (src, dst)

    def test_direction_picker(self):
        routing = TorusXYRouting()
        topo = Torus2D(4, 4)
        # node 0 -> node 3 (same row): WEST wrap
        assert routing.route(topo, 0, 3) == Port.WEST
        # node 0 -> node 1: EAST direct
        assert routing.route(topo, 0, 1) == Port.EAST
        # y wrap
        assert routing.route(topo, 0, topo.node_at(0, 3)) == Port.NORTH

    def test_crosses_wrap_detection(self):
        topo = Torus2D(4, 4)
        assert TorusXYRouting.crosses_wrap(topo, topo.node_at(3, 0), Port.EAST)
        assert TorusXYRouting.crosses_wrap(topo, topo.node_at(0, 0), Port.WEST)
        assert TorusXYRouting.crosses_wrap(topo, topo.node_at(0, 0), Port.NORTH)
        assert not TorusXYRouting.crosses_wrap(topo, topo.node_at(1, 1),
                                               Port.EAST)


class TestDatelineDiscipline:
    def test_requires_two_vcs_single_class(self):
        eng = Engine()
        with pytest.raises(ConfigError):
            Network(eng, Torus2D(4, 4), num_vcs=1)

    def test_packet_switches_vc_after_wrap(self):
        eng, net = torus_net(4, 1)
        captured = {}

        def sender():
            ni = net.interface(1)
            # 1 -> 2 -> 3 -> wrap -> 0 would be long; shortest 1->0 is WEST
            # use 2 -> 0: ties go positive (EAST through 3, wrap to 0)
            yield ni.send(0, payload_bytes=0)

        def receiver():
            ni = net.interface(0)
            pkt = yield ni.recv()
            captured["pkt"] = pkt

        eng2, net2 = torus_net(4, 1)
        ni2 = net2.interface(2)

        def sender2():
            yield ni2.send(0, payload_bytes=0)

        def receiver2():
            pkt = yield net2.interface(0).recv()
            captured["pkt"] = pkt

        eng2.process(sender2())
        p = eng2.process(receiver2())
        eng2.run_until_done(p.done, limit=1_000_000)
        # the packet crossed the wrap edge (3 -> 0): dateline tier is 1
        assert captured["pkt"].dateline_vc == 1
        assert captured["pkt"].hops == 2

    def test_ring_pressure_does_not_deadlock(self):
        """All nodes of a ring stream to their antipode simultaneously —
        the canonical torus-deadlock pattern; dateline VCs must survive."""
        eng, net = torus_net(4, 1, buffer_depth=2)
        dog = ProgressWatchdog(eng, net, interval=5_000)
        done = {"received": 0}
        total = 4 * 20

        def sender(node):
            ni = net.interface(node)
            dst = (node + 2) % 4
            for _ in range(20):
                yield ni.send(dst, payload_bytes=64)

        def receiver(node):
            ni = net.interface(node)
            while done["received"] < total:
                yield ni.recv()
                done["received"] += 1

        for node in range(4):
            eng.process(sender(node))
            eng.process(receiver(node))
        eng.run(until=3_000_000)
        assert done["received"] == total
        assert dog.stalled_at is None

    def test_uniform_random_traffic_2d_torus(self):
        eng, net = torus_net(4, 4, buffer_depth=2)
        dog = ProgressWatchdog(eng, net, interval=10_000)
        rng = RngPool(seed=9).stream("t")
        done = {"received": 0}
        total = 16 * 10

        def sender(node):
            ni = net.interface(node)
            for _ in range(10):
                dst = int(rng.integers(0, 16))
                yield ni.send(dst, payload_bytes=32)
                yield int(rng.integers(5, 50))

        def receiver(node):
            ni = net.interface(node)
            while done["received"] < total:
                yield ni.recv()
                done["received"] += 1

        for node in range(16):
            eng.process(sender(node))
            eng.process(receiver(node))
        eng.run(until=5_000_000)
        assert done["received"] == total
        assert dog.stalled_at is None

    def test_torus_latency_beats_mesh_for_far_corners(self):
        eng_m = Engine()
        from repro.noc import XYRouting

        mesh = Network(eng_m, Mesh2D(4, 4))
        eng_t, torus = torus_net(4, 4)
        mesh_lat = None
        torus_lat = None

        def xfer(eng, net, out):
            def sender():
                yield net.interface(0).send(15, payload_bytes=0)

            def receiver():
                pkt = yield net.interface(15).recv()
                out.append(pkt.latency)

            eng.process(sender())
            p = eng.process(receiver())
            eng.run_until_done(p.done, limit=1_000_000)

        m_out, t_out = [], []
        xfer(eng_m, mesh, m_out)
        xfer(eng_t, torus, t_out)
        # corner-to-corner: 6 hops on the mesh, 2 on the torus
        assert t_out[0] < m_out[0]
