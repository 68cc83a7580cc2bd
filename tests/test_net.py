"""Unit/integration tests for the datacenter network substrate."""

import pytest

from repro.errors import ConfigError, ProtocolError
from repro.net import (
    EthernetFabric,
    EthernetFrame,
    HostCpu,
    HostNetStack,
    HundredGigMac,
    KERNEL_RX_CYCLES,
    BYPASS_RX_CYCLES,
    PcieLink,
    ReliableEndpoint,
    ReliableMux,
    TenGigMac,
)
from repro.sim import Engine, RngPool
from tests.conftest import frame_switch


class TestFabric:
    def test_frame_minimum_size_enforced(self):
        frame = EthernetFrame("a", "b", nbytes=10)
        assert frame.nbytes == 64

    def test_delivery_with_latency(self):
        eng = Engine()
        fabric = EthernetFabric(eng, latency_cycles=100)
        got = []
        fabric.attach("b", lambda f: got.append((eng.now, f.payload)))
        fabric.transmit(EthernetFrame("a", "b", 64, payload="hi"))
        eng.run()
        assert got == [(100, "hi")]

    def test_unknown_mac_dropped(self):
        eng = Engine()
        fabric = EthernetFabric(eng)
        fabric.transmit(EthernetFrame("a", "nobody", 64))
        eng.run()
        assert fabric.frames_dropped == 1

    def test_duplicate_mac_rejected(self):
        eng = Engine()
        fabric = EthernetFabric(eng)
        fabric.attach("x", lambda f: None)
        with pytest.raises(ConfigError):
            fabric.attach("x", lambda f: None)

    def test_mtu_enforced(self):
        eng = Engine()
        fabric = EthernetFabric(eng)
        with pytest.raises(ConfigError):
            fabric.transmit(EthernetFrame("a", "b", 5000))
        jumbo = EthernetFabric(eng, jumbo=True)
        jumbo.transmit(EthernetFrame("a", "b", 5000))  # fine

    def test_loss_injection_is_deterministic_per_seed(self):
        def lost_count(seed):
            eng = Engine()
            rng = RngPool(seed=seed).stream("loss")
            fabric = EthernetFabric(eng, loss_rate=0.3, rng=rng)
            fabric.attach("b", lambda f: None)
            for _ in range(200):
                fabric.transmit(EthernetFrame("a", "b", 64))
            eng.run()
            return fabric.frames_lost

        assert lost_count(1) == lost_count(1)
        assert 20 < lost_count(1) < 120  # ~30% of 200

    def test_loss_requires_rng(self):
        with pytest.raises(ConfigError):
            EthernetFabric(Engine(), loss_rate=0.1)


class TestTenGigMac:
    def bring_up(self, eng, fabric, addr):
        mac = TenGigMac(eng, fabric, addr)
        mac.assert_reset()
        mac.release_reset()
        eng.run(until=eng.now + TenGigMac.RESET_CYCLES)
        mac.enable_tx_rx()
        return mac

    def test_bring_up_order_enforced(self):
        eng = Engine()
        fabric = EthernetFabric(eng)
        mac = TenGigMac(eng, fabric, "m0")
        with pytest.raises(ProtocolError):
            mac.release_reset()
        mac.assert_reset()
        mac.release_reset()
        with pytest.raises(ProtocolError):
            mac.enable_tx_rx()  # too early: reset not settled

    def test_send_before_ready_rejected(self):
        eng = Engine()
        fabric = EthernetFabric(eng)
        mac = TenGigMac(eng, fabric, "m0")
        with pytest.raises(ProtocolError):
            mac.send_frame(EthernetFrame("m0", "m1", 64))

    def test_serialization_at_line_rate(self):
        eng = Engine()
        fabric = EthernetFabric(eng, latency_cycles=1)
        tx = self.bring_up(eng, fabric, "m0")
        rx = self.bring_up(eng, fabric, "m1")
        got = []
        rx.set_rx_callback(lambda f: got.append(eng.now))
        start = eng.now
        done = tx.send_frame(EthernetFrame("m0", "m1", 1500))
        eng.run_until_done(done)
        # 1500B at 10G = 300 fabric cycles of serialization
        assert eng.now - start == 300
        eng.run()
        assert got and got[0] == start + 301

    def test_rx_before_ready_dropped(self):
        eng = Engine()
        fabric = EthernetFabric(eng, latency_cycles=1)
        tx = self.bring_up(eng, fabric, "m0")
        victim = TenGigMac(eng, fabric, "m1")  # never brought up
        victim.set_rx_callback(lambda f: pytest.fail("should not deliver"))
        eng.run_until_done(tx.send_frame(EthernetFrame("m0", "m1", 64)))
        eng.run()
        assert victim.frames_received == 0


class TestHundredGigMac:
    def bring_up(self, eng, fabric, addr):
        mac = HundredGigMac(eng, fabric, addr)
        mac.write_reg("cfg_tx_enable", 1)
        mac.write_reg("cfg_rx_enable", 1)
        eng.run(until=eng.now + HundredGigMac.ALIGN_CYCLES)
        assert mac.read_reg("stat_aligned") == 1
        return mac

    def test_alignment_takes_time(self):
        eng = Engine()
        fabric = EthernetFabric(eng)
        mac = HundredGigMac(eng, fabric, "m0")
        mac.write_reg("cfg_tx_enable", 1)
        mac.write_reg("cfg_rx_enable", 1)
        assert mac.read_reg("stat_aligned") == 0
        eng.run(until=HundredGigMac.ALIGN_CYCLES)
        assert mac.read_reg("stat_aligned") == 1

    def test_stat_register_not_writable(self):
        mac = HundredGigMac(Engine(), EthernetFabric(Engine()), "m0")
        with pytest.raises(ProtocolError):
            mac.write_reg("stat_aligned", 1)

    def test_tx_push_backpressure(self):
        eng = Engine()
        fabric = EthernetFabric(eng, latency_cycles=1)
        mac = self.bring_up(eng, fabric, "m0")
        pushed = 0
        while mac.tx_push(EthernetFrame("m0", "m1", 1500)):
            pushed += 1
            if pushed > 100:
                pytest.fail("FIFO never filled")
        assert pushed >= HundredGigMac.TX_FIFO_FRAMES - 1
        eng.run()  # drains
        assert mac.tx_fifo_space == HundredGigMac.TX_FIFO_FRAMES

    def test_100g_serializes_10x_faster_than_10g(self):
        eng = Engine()
        fabric = EthernetFabric(eng, latency_cycles=1)
        mac = self.bring_up(eng, fabric, "m0")
        start = eng.now
        mac.tx_push(EthernetFrame("m0", "m1", 1500))
        eng.run()
        # 1500B at 100G = 30 cycles (vs 300 at 10G)
        assert fabric.frames_delivered == 0  # nobody attached at m1
        assert mac.frames_sent == 1

    def test_interfaces_really_differ(self):
        """The portability pain point: no shared bring-up surface."""
        assert not hasattr(TenGigMac, "write_reg")
        assert not hasattr(HundredGigMac, "assert_reset")
        assert not hasattr(HundredGigMac, "send_frame")
        assert not hasattr(TenGigMac, "tx_push")


def ignore(_payload):
    """The receiver of an endpoint that is sent no payload."""


def acked_send(eng, endpoint, payload, nbytes):
    """``endpoint.send`` as an event that succeeds on the payload's ACK."""
    acked = eng.event()
    endpoint.send(payload, payload_bytes=nbytes, on_acked=acked.succeed)
    return acked


class FrameLoop:
    """Direct frame pipe between two ReliableEndpoints via the fabric; A
    sends, and B's receiver collects what it is handed in ``got``."""

    def __init__(self, eng, loss=0.0, seed=7):
        self.fabric = EthernetFabric(
            eng, latency_cycles=50, loss_rate=loss,
            rng=RngPool(seed=seed).stream("loss") if loss else None,
        )
        self.got = []
        self.a = ReliableEndpoint(eng, self.fabric.transmit, "A", "B",
                                  ignore)
        self.b = ReliableEndpoint(eng, self.fabric.transmit, "B", "A",
                                  self.got.append)
        self.fabric.attach("A", frame_switch(self.a))
        self.fabric.attach("B", frame_switch(self.b))


class TestReliableTransport:
    def test_in_order_delivery_no_loss(self):
        eng = Engine()
        loop = FrameLoop(eng)
        got = loop.got

        def sender():
            for i in range(20):
                yield acked_send(eng, loop.a, i, 64)

        # the sender ends on its last ACK: B was handed everything
        p = eng.process(sender())
        eng.run_until_done(p.done, limit=1_000_000)
        assert got == list(range(20))

    def test_recovers_from_loss(self):
        eng = Engine()
        loop = FrameLoop(eng, loss=0.2)
        got = loop.got

        def sender():
            for i in range(30):
                yield acked_send(eng, loop.a, i, 64)

        # the sender ends on its last ACK: B was handed everything
        p = eng.process(sender())
        eng.run_until_done(p.done, limit=10_000_000)
        assert got == list(range(30))
        assert loop.a.retransmissions > 0

    def test_no_duplicates_delivered_under_loss(self):
        eng = Engine()
        loop = FrameLoop(eng, loss=0.25, seed=3)
        got = loop.got

        def sender():
            for i in range(25):
                yield acked_send(eng, loop.a, i, 32)

        # the sender ends on its last ACK: B was handed everything
        p = eng.process(sender())
        eng.run_until_done(p.done, limit=10_000_000)
        assert got == list(range(25))  # exactly once, in order

    def test_window_limits_outstanding(self):
        eng = Engine()
        fabric = EthernetFabric(eng, latency_cycles=10_000)  # slow ACKs
        a = ReliableEndpoint(eng, fabric.transmit, "A", "B", ignore,
                             window=4)
        b = ReliableEndpoint(eng, fabric.transmit, "B", "A", ignore)
        fabric.attach("A", frame_switch(a))
        fabric.attach("B", frame_switch(b))

        def sender():
            for i in range(10):
                a.send(i)
                yield 1

        eng.process(sender())
        eng.run(until=5000)  # before any ACK returns
        assert a.unacked <= 4

    def test_validation(self):
        eng = Engine()
        with pytest.raises(ConfigError):
            ReliableEndpoint(eng, lambda f: None, "A", "B", ignore, window=0)
        with pytest.raises(ConfigError):
            ReliableEndpoint(eng, lambda f: None, "A", "B", ignore, timeout=0)


class TestReliableMux:
    """The one per-peer demux every fabric endpoint holds."""

    @staticmethod
    def attach(eng, fabric, mac, on_payload, window=4, timeout=2_000):
        mux = ReliableMux(eng, fabric.transmit, mac, on_payload,
                          window=window, timeout=timeout)
        fabric.attach(mac, mux.deliver_frame)
        return mux

    def test_one_connection_per_peer(self):
        eng = Engine()
        fabric = EthernetFabric(eng, latency_cycles=50)
        got = {mac: [] for mac in "ABC"}
        muxes = {mac: self.attach(
            eng, fabric, mac,
            lambda peer, payload, mac=mac: got[mac].append((peer, payload)))
            for mac in "ABC"}
        # nothing exists before first use: no connection, no engine event
        assert all(mux.peers == () for mux in muxes.values())
        assert eng.pending_events() == 0 and eng.process_count == 0
        a = muxes["A"]
        to_b = a.peer("B")
        assert a.peers == ("B",) and eng.pending_events() == 0
        for i in range(10):
            a.peer("B").send(i)
            a.peer("C").send(i)
        eng.run(until=100_000)
        assert a.peer("B") is to_b
        # A opened two peers by sending; B and C one each, by A's first frame
        assert a.peers == ("B", "C")
        assert muxes["B"].peers == muxes["C"].peers == ("A",)
        assert eng.process_count == 0  # a connection is not a process
        assert got["B"] == got["C"] == [("A", i) for i in range(10)]
        assert got["A"] == []

    def test_in_order_exactly_once_per_peer_under_loss(self):
        eng = Engine()
        fabric = EthernetFabric(eng, latency_cycles=50, loss_rate=0.2,
                                rng=RngPool(seed=5).stream("loss"))
        got = {"A": [], "B": []}
        self.attach(eng, fabric, "C",
                    lambda peer, payload: got[peer].append(payload))
        senders = [self.attach(eng, fabric, mac, lambda peer, payload: None)
                   for mac in "AB"]
        for i in range(30):  # the two peers' frames interleave on the wire
            for mux in senders:
                mux.peer("C").send((mux.mac, i), payload_bytes=64)
        eng.run(until=2_000_000)
        assert got["A"] == [("A", i) for i in range(30)]
        assert got["B"] == [("B", i) for i in range(30)]
        assert sum(m.peer("C").retransmissions for m in senders) > 0

    def test_window_bounds_each_peer_separately(self):
        eng = Engine()
        fabric = EthernetFabric(eng, latency_cycles=10_000)  # slow ACKs
        for mac in "BC":
            self.attach(eng, fabric, mac, lambda peer, payload: None)
        a = self.attach(eng, fabric, "A", lambda peer, payload: None,
                        window=4, timeout=50_000)
        for i in range(10):
            a.peer("B").send(i)
        a.peer("C").send("only")
        eng.run(until=5_000)  # before any ACK returns
        # B's full window does not hold up the connection to C
        assert a.peer("B").unacked == 4
        assert a.peer("C").unacked == 1

    def test_window_checked_at_first_use(self):
        eng = Engine()
        mux = ReliableMux(eng, lambda frame: None, "A",
                          lambda peer, payload: None, window=0, timeout=10)
        with pytest.raises(ConfigError):
            mux.peer("B")


class TestHostModels:
    def test_cpu_charges_cycles(self):
        eng = Engine()
        cpu = HostCpu(eng, cores=1)
        done = []

        def work():
            yield from cpu.run(100)
            done.append(eng.now)

        p = eng.process(work())
        eng.run_until_done(p.done)
        assert cpu.cycles_used >= 100
        assert done[0] >= 100

    def test_jitter_produces_tail(self):
        eng = Engine()
        rng = RngPool(seed=5).stream("jitter")
        cpu = HostCpu(eng, cores=8, rng=rng, jitter_prob=0.5, jitter_scale=5000)
        durations = []

        def work():
            start = eng.now
            yield from cpu.run(10)
            durations.append(eng.now - start)

        procs = [eng.process(work()) for _ in range(200)]
        eng.run_until_done(eng.all_of([p.done for p in procs]), limit=10_000_000)
        assert max(durations) > 3 * min(durations)
        assert cpu.jitter_events > 0

    def test_cores_contend(self):
        eng = Engine()
        cpu = HostCpu(eng, cores=1)
        finish = []

        def work():
            yield from cpu.run(100, wakeup=False)
            finish.append(eng.now)

        for _ in range(3):
            eng.process(work())
        eng.run()
        assert finish == [100, 200, 300]

    def test_netstack_kernel_vs_bypass(self):
        kernel = HostNetStack(kernel_bypass=False)
        bypass = HostNetStack(kernel_bypass=True)
        assert kernel.receive_cost(1500) > 3 * bypass.receive_cost(1500)
        assert kernel.receive_cost(1500) >= KERNEL_RX_CYCLES
        assert bypass.receive_cost(64) >= BYPASS_RX_CYCLES

    def test_pcie_dma_latency_and_bandwidth(self):
        eng = Engine()
        link = PcieLink(eng, gen=3)
        times = {}

        def xfer(name, nbytes):
            start = eng.now
            yield from link.dma(nbytes)
            times[name] = eng.now - start

        p1 = eng.process(xfer("small", 64))
        eng.run_until_done(p1.done)
        p2 = eng.process(xfer("large", 64 * 1024))
        eng.run_until_done(p2.done)
        assert times["small"] >= 225
        assert times["large"] > times["small"] + 1000

    def test_pcie_gen_scaling(self):
        eng = Engine()
        assert PcieLink(eng, gen=5).bytes_per_cycle == 4 * PcieLink(eng, gen=3).bytes_per_cycle
