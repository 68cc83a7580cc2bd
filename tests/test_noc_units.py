"""Unit tests for NoC building blocks: flits, topology, routing, a router's
round-robin grant, QoS."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, RouteError
from repro.noc import (
    Flit,
    FlitKind,
    Mesh2D,
    Packet,
    Port,
    RateMeter,
    Router,
    TokenBucket,
    Torus2D,
    TorusXYRouting,
    XYRouting,
    flits_for_bytes,
)
from repro.sim import Engine


class TestFlits:
    def test_flits_for_bytes_includes_header(self):
        assert flits_for_bytes(0) == 1
        assert flits_for_bytes(1) == 2
        assert flits_for_bytes(16) == 2
        assert flits_for_bytes(17) == 3
        assert flits_for_bytes(64, flit_bytes=32) == 3

    def test_flits_for_bytes_rejects_negative(self):
        with pytest.raises(ConfigError):
            flits_for_bytes(-1)

    def test_single_flit_packet_is_headtail(self):
        pkt = Packet(pid=1, src=0, dst=1, size_flits=1)
        flits = pkt.make_flits()
        assert len(flits) == 1
        assert flits[0].kind == FlitKind.HEADTAIL
        assert flits[0].is_head and flits[0].is_tail

    def test_multi_flit_packet_structure(self):
        pkt = Packet(pid=1, src=0, dst=1, size_flits=4)
        flits = pkt.make_flits()
        kinds = [f.kind for f in flits]
        assert kinds == [FlitKind.HEAD, FlitKind.BODY, FlitKind.BODY, FlitKind.TAIL]
        assert [f.seq for f in flits] == [0, 1, 2, 3]

    def test_packet_validation(self):
        with pytest.raises(ConfigError):
            Packet(pid=1, src=0, dst=1, size_flits=0)

    def test_latency_in_flight_is_minus_one(self):
        pkt = Packet(pid=1, src=0, dst=1, size_flits=1)
        assert pkt.latency == -1
        pkt.injected_at = 10
        pkt.delivered_at = 35
        assert pkt.latency == 25


class TestMesh2D:
    def test_coords_roundtrip(self):
        mesh = Mesh2D(4, 3)
        for node in mesh.nodes():
            x, y = mesh.coords(node)
            assert mesh.node_at(x, y) == node

    def test_node_count(self):
        assert Mesh2D(5, 7).node_count == 35

    def test_neighbors_interior(self):
        mesh = Mesh2D(3, 3)
        center = mesh.node_at(1, 1)
        assert mesh.neighbor(center, Port.NORTH) == mesh.node_at(1, 0)
        assert mesh.neighbor(center, Port.SOUTH) == mesh.node_at(1, 2)
        assert mesh.neighbor(center, Port.EAST) == mesh.node_at(2, 1)
        assert mesh.neighbor(center, Port.WEST) == mesh.node_at(0, 1)

    def test_edges_have_no_neighbor(self):
        mesh = Mesh2D(3, 3)
        assert mesh.neighbor(mesh.node_at(0, 0), Port.NORTH) is None
        assert mesh.neighbor(mesh.node_at(0, 0), Port.WEST) is None
        assert mesh.neighbor(mesh.node_at(2, 2), Port.SOUTH) is None
        assert mesh.neighbor(mesh.node_at(2, 2), Port.EAST) is None

    def test_link_count(self):
        # 2 * (w*(h-1) + h*(w-1)) directed links
        mesh = Mesh2D(4, 4)
        assert len(mesh.links()) == 2 * (4 * 3 + 4 * 3)

    def test_links_are_symmetric(self):
        mesh = Mesh2D(3, 2)
        links = set((a, b) for a, _p, b in mesh.links())
        assert all((b, a) in links for a, b in links)

    def test_hop_distance_is_manhattan(self):
        mesh = Mesh2D(4, 4)
        assert mesh.hop_distance(0, 15) == 6
        assert mesh.hop_distance(5, 5) == 0

    def test_invalid_construction(self):
        with pytest.raises(ConfigError):
            Mesh2D(0, 4)

    def test_out_of_range_node(self):
        with pytest.raises(RouteError):
            Mesh2D(2, 2).coords(4)

    def test_port_opposites(self):
        assert Port.NORTH.opposite == Port.SOUTH
        assert Port.EAST.opposite == Port.WEST
        assert Port.LOCAL.opposite == Port.LOCAL


class TestTorus2D:
    def test_wraparound_neighbors(self):
        torus = Torus2D(3, 3)
        assert torus.neighbor(torus.node_at(0, 0), Port.WEST) == torus.node_at(2, 0)
        assert torus.neighbor(torus.node_at(0, 0), Port.NORTH) == torus.node_at(0, 2)

    def test_hop_distance_uses_wrap(self):
        torus = Torus2D(4, 4)
        assert torus.hop_distance(torus.node_at(0, 0), torus.node_at(3, 0)) == 1
        assert torus.hop_distance(torus.node_at(0, 0), torus.node_at(2, 2)) == 4

    def test_every_node_has_four_neighbors(self):
        torus = Torus2D(3, 3)
        assert len(torus.links()) == 3 * 3 * 4


class TestRouting:
    def test_xy_goes_x_first(self):
        mesh = Mesh2D(4, 4)
        xy = XYRouting()
        assert xy.route(mesh, mesh.node_at(0, 0), mesh.node_at(2, 2)) == Port.EAST
        assert xy.route(mesh, mesh.node_at(2, 0), mesh.node_at(2, 2)) == Port.SOUTH

    def test_local_at_destination(self):
        mesh = Mesh2D(4, 4)
        for routing in (XYRouting(), TorusXYRouting()):
            assert routing.route(mesh, 5, 5) == Port.LOCAL

    def test_xy_route_terminates_everywhere(self):
        mesh = Mesh2D(5, 4)
        xy = XYRouting()
        for src in mesh.nodes():
            for dst in mesh.nodes():
                node, hops = src, 0
                while node != dst:
                    port = xy.route(mesh, node, dst)
                    node = mesh.neighbor(node, port)
                    hops += 1
                    assert hops <= mesh.hop_distance(src, dst)
                assert hops == mesh.hop_distance(src, dst)


def local_grants(topo, node, masks):
    """The input slot ``node``'s router grants its LOCAL output in each of
    a row of passes, one a cycle: in pass ``i`` exactly the input slots of
    ``masks[i]`` request it (one VC per port, so a slot is a port)."""
    eng = Engine()
    router = Router(eng, node, topo, XYRouting(), num_vcs=1, buffer_depth=8)
    delivered = []
    router.connect_local(delivered.append, lambda _landing, _vc: None)
    granted = []
    for cycle, mask in enumerate(masks, start=1):
        for slot, ivc in enumerate(router._scan):
            if ivc.buffer:  # a request an earlier pass did not grant
                ivc.buffer.clear()
                router._buffered -= 1
            if mask >> slot & 1:
                pkt = Packet(slot, node, node, 1)
                router._flits_in.append((cycle, ivc.port,
                                         Flit(FlitKind.HEADTAIL, pkt, 0)))
        router._arm(cycle)
        eng.run(until=cycle)
        granted.append(delivered.pop().packet.pid)
    return granted, router._out[Port.LOCAL].pointer


class TestArbiters:
    """The grant rule of a router's output port: the first requesting
    slot at-or-after the port's pointer, wrapping to the lowest; the
    pointer moves past the winner, mod the router's slots."""

    def test_round_robin_rotates(self):
        # the middle router of a 3x1 mesh: LOCAL, EAST and WEST are slots
        # 0, 1 and 2
        granted, _pointer = local_grants(Mesh2D(3, 1), 1, [0b111] * 6)
        assert granted == [0, 1, 2, 0, 1, 2]

    def test_round_robin_skips_idle(self):
        granted, _pointer = local_grants(Mesh2D(3, 1), 1, [0b010, 0b001])
        assert granted == [1, 0]

    def test_round_robin_grant_on_a_request_mask(self):
        # the centre router of a 3x3 mesh: five slots
        granted, pointer = local_grants(Mesh2D(3, 3), 4,
                                        [0b10110] * 4 + [0b00001])
        assert granted == [1, 2, 4, 1, 0]  # pointer 2: the last wraps
        assert pointer == 1

    def test_a_router_has_at_least_one_slot(self):
        with pytest.raises(ConfigError, match="need >= 1 VC, got 0"):
            Router(Engine(), 0, Mesh2D(1, 1), XYRouting(), num_vcs=0)


class TestTokenBucket:
    def test_burst_admitted_then_throttled(self):
        tb = TokenBucket(rate_per_cycle=0.1, burst=5)
        admitted = sum(tb.consume(0) for _ in range(10))
        assert admitted == 5
        assert tb.throttled == 5

    def test_refill_over_time(self):
        tb = TokenBucket(rate_per_cycle=0.5, burst=2)
        assert tb.consume(0)
        assert tb.consume(0)
        assert not tb.consume(0)
        assert tb.consume(2)  # one token back after 2 cycles at 0.5/cyc

    def test_tokens_cap_at_burst(self):
        tb = TokenBucket(rate_per_cycle=1.0, burst=4)
        assert tb.tokens(1000) == 4

    def test_cycles_until(self):
        tb = TokenBucket(rate_per_cycle=0.25, burst=1)
        assert tb.cycles_until(0) == 0
        tb.consume(0)
        assert tb.cycles_until(0) == 4

    def test_validation(self):
        with pytest.raises(ConfigError):
            TokenBucket(rate_per_cycle=0, burst=1)
        with pytest.raises(ConfigError):
            TokenBucket(rate_per_cycle=1, burst=0)

    def test_time_reversal_rejected(self):
        tb = TokenBucket(rate_per_cycle=1, burst=1)
        tb.consume(10)
        with pytest.raises(ConfigError):
            tb.consume(5)


class TestRateMeter:
    def test_rate_over_window(self):
        meter = RateMeter(window_cycles=100, buckets=10)
        for t in range(0, 100, 2):
            meter.record(t)
        assert meter.rate(99) == pytest.approx(0.5)

    def test_old_events_age_out(self):
        meter = RateMeter(window_cycles=100, buckets=10)
        for t in range(50):
            meter.record(t)
        assert meter.rate(49) == pytest.approx(0.5)
        assert meter.rate(500) == 0.0

    def test_window_validation(self):
        with pytest.raises(ConfigError):
            RateMeter(window_cycles=5, buckets=10)

    @settings(deadline=None)
    @given(st.data())
    def test_advance_matches_the_bucket_by_bucket_loop(self, data):
        """Aging out is O(buckets), not O(idle gap): ``rate()`` and the
        bucket contents equal those of the loop that zeroed one bucket per
        elapsed ``bucket_cycles``, for gaps of 0 to 10**7 cycles."""
        buckets = data.draw(st.integers(1, 12))
        bucket_cycles = data.draw(st.sampled_from([1, 3, 1000]))
        # (the reference loop is what makes long gaps in short buckets slow)
        longest = 10**7 if bucket_cycles == 1000 else 200 * bucket_cycles
        ops = data.draw(st.lists(st.tuples(
            st.booleans(), st.integers(1, 9),
            st.one_of(st.integers(0, 4 * bucket_cycles),
                      st.integers(0, longest))), max_size=40))
        meter = RateMeter(window_cycles=buckets * bucket_cycles,
                          buckets=buckets)
        counts, current, now = [0] * buckets, 0, 0

        def advance():
            nonlocal current
            while current < now // bucket_cycles:
                current += 1
                counts[current % buckets] = 0

        for record, amount, gap in ops:
            now += gap
            advance()
            if record:
                meter.record(now, amount)
                counts[current % buckets] += amount
            else:
                assert meter.rate(now) == sum(counts) / (buckets * bucket_cycles)
            assert meter._counts == counts

    @settings(deadline=None)
    @given(st.integers(1, 12), st.sampled_from([1, 7, 1000]),
           st.lists(st.tuples(st.integers(0, 36), st.integers(0, 999),
                              st.integers(0, 9)), max_size=40))
    def test_a_window_long_gap_clears_as_the_per_bucket_rule(
            self, buckets, bucket_cycles, ops):
        """Clearing the whole window after a gap of ``buckets`` buckets or
        more leaves the counts, the current bucket and ``rate()`` exactly
        as zeroing ``min(gap, buckets)`` buckets one by one did, for gaps
        on both sides of a window."""
        meter = RateMeter(window_cycles=buckets * bucket_cycles,
                          buckets=buckets)
        counts, current, now = [0] * buckets, 0, 0
        for gap_buckets, offset, amount in ops:
            now += gap_buckets * bucket_cycles + offset % bucket_cycles
            meter.record(now, amount)
            index = now // bucket_cycles
            if index > current:  # the per-bucket rule
                first = current + 1
                for i in range(first, first + min(index - current, buckets)):
                    counts[i % buckets] = 0
                current = index
            counts[current % buckets] += amount
            assert (meter._counts, meter._current) == (counts, current)
            assert meter.rate(now) == sum(counts) / (buckets * bucket_cycles)

    def test_a_huge_idle_gap_returns(self):
        meter = RateMeter(window_cycles=10_000, buckets=10)
        meter.record(5, 3)
        assert meter.rate(10**12) == 0.0  # the loop would never finish
        meter.record(10**12 + 1, 7)
        assert meter.rate(10**12 + 2) == 7 / 10_000
