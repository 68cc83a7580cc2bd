"""Network service tests: two Apiary boards talking over the datacenter
fabric, MAC portability (D10's mechanism), and port binding."""

import pytest

from repro.accel import Accelerator
from repro.kernel import ApiarySystem, NetConfig, NocConfig, SystemConfig
from repro.net import EthernetFabric
from repro.net.transport import (
    BOARD_TIMEOUT,
    BOARD_WINDOW,
    HOST_TIMEOUT,
    HOST_WINDOW,
)
from repro.sim import Engine
from repro.workloads import RemoteClientHost


def two_boards(mac_a="100g", mac_b="100g", engine=None):
    engine = engine or Engine()
    fabric = EthernetFabric(engine, latency_cycles=500)
    a = ApiarySystem(
        SystemConfig(noc=NocConfig(width=3, height=2),
                     net=NetConfig(mac_kind=mac_a, mac_addr="boardA")),
        engine=engine, fabric=fabric)
    b = ApiarySystem(
        SystemConfig(noc=NocConfig(width=3, height=2),
                     net=NetConfig(mac_kind=mac_b, mac_addr="boardB")),
        engine=engine, fabric=fabric)
    a.boot()
    b.boot()
    return engine, a, b


class NetEcho(Accelerator):
    """Binds a port; echoes every received payload back to its source."""

    def __init__(self, name, port):
        super().__init__(name)
        self.port = port
        self.received = []

    def main(self, shell):
        yield shell.net_bind(self.port)
        while True:
            msg = yield shell.recv()
            if msg.op != "net.rx":
                continue
            body = msg.payload
            self.received.append(body["data"])
            yield shell.net_send(body["src_mac"], self.port,
                                 data=("echo", body["data"]), nbytes=64)


class NetClient(Accelerator):
    """Sends requests to a remote MAC and collects echoed replies."""

    def __init__(self, name, port, peer_mac, count=5, nbytes=64):
        super().__init__(name)
        self.port = port
        self.peer_mac = peer_mac
        self.count = count
        self.nbytes = nbytes
        self.replies = []
        self.latencies = []

    def main(self, shell):
        yield shell.net_bind(self.port)
        for i in range(self.count):
            t0 = shell.engine.now
            yield shell.net_send(self.peer_mac, self.port, data=i,
                                 nbytes=self.nbytes)
            while True:
                msg = yield shell.recv()
                if msg.op == "net.rx":
                    self.replies.append(msg.payload["data"])
                    self.latencies.append(shell.engine.now - t0)
                    break


def run_echo_pair(mac_a, mac_b, count=5):
    engine, a, b = two_boards(mac_a, mac_b)
    server = NetEcho("server", port=7)
    sa = b.start_app(3, server)
    client = NetClient("client", port=7, peer_mac="boardB", count=count)
    sb = a.start_app(3, client)
    engine.run_until_done(engine.all_of([sa, sb]), limit=10_000_000)
    engine.run(until=engine.now + 30_000_000)
    return client, server


def test_board_to_board_roundtrip_100g():
    client, server = run_echo_pair("100g", "100g")
    assert client.replies == [("echo", i) for i in range(5)]
    assert server.received == list(range(5))


def test_same_application_runs_on_10g_board():
    """D10's core claim: identical accelerator code, different MAC IP."""
    client, server = run_echo_pair("10g", "10g")
    assert client.replies == [("echo", i) for i in range(5)]


def test_mixed_macs_interoperate():
    client, _server = run_echo_pair("10g", "100g")
    assert len(client.replies) == 5


def test_10g_latency_exceeds_100g_for_large_payloads():
    fast, _ = run_echo_pair("100g", "100g")
    slow, _ = run_echo_pair("10g", "10g")
    # serialization of the 64B payload differs 10x; with fixed fabric
    # latency the gap is visible but not 10x end-to-end
    assert sum(slow.latencies) > sum(fast.latencies)


def test_port_collision_rejected():
    engine, a, b = two_boards()

    class Binder(Accelerator):
        def __init__(self, name):
            super().__init__(name)
            self.outcome = None

        def main(self, shell):
            try:
                yield shell.net_bind(9)
                self.outcome = "bound"
            except Exception as err:
                self.outcome = type(err).__name__

    first = Binder("first")
    second = Binder("second")
    s1 = a.start_app(3, first)
    engine.run_until_done(s1)
    engine.run(until=engine.now + 200_000)
    s2 = a.start_app(4, second)
    engine.run_until_done(s2)
    engine.run(until=engine.now + 200_000)
    assert first.outcome == "bound"
    assert second.outcome == "ServiceError"


def test_unbound_port_traffic_counted_not_delivered():
    engine, a, b = two_boards()
    client = NetClient("client", port=42, peer_mac="boardB", count=1)

    class FireAndForget(Accelerator):
        def main(self, shell):
            yield shell.net_bind(42)
            yield shell.net_send("boardB", 99, data="nobody", nbytes=64)

    s = a.start_app(3, FireAndForget("fnf"))
    engine.run_until_done(s)
    engine.run(until=engine.now + 5_000_000)
    assert b.net_service.rx_unbound >= 1


def test_board_and_host_use_the_two_transport_constant_pairs():
    """The only two (window, timeout) settings in the system, by name."""
    engine, a, _b = two_boards()
    engine.run(until=engine.now + 100_000)  # the net tile's bring-up
    board = a.net_service.mux
    host = RemoteClientHost(engine, a.mac.fabric, "h0").mux
    assert (board.window, board.timeout) \
        == (BOARD_WINDOW, BOARD_TIMEOUT) == (8, 20_000)
    assert (host.window, host.timeout) \
        == (HOST_WINDOW, HOST_TIMEOUT) == (16, 50_000)
    to_host, to_board = board.peer("h0"), host.peer("boardA")
    assert (to_host.window, to_host.timeout) == (8, 20_000)
    assert (to_board.window, to_board.timeout) == (16, 50_000)


def test_transport_recovers_from_fabric_loss():
    engine = Engine()
    from repro.sim import RngPool

    fabric = EthernetFabric(engine, latency_cycles=500, loss_rate=0.15,
                            rng=RngPool(seed=11).stream("loss"))
    a = ApiarySystem(
        SystemConfig(noc=NocConfig(width=3, height=2),
                     net=NetConfig(mac_addr="boardA")),
        engine=engine, fabric=fabric)
    b = ApiarySystem(
        SystemConfig(noc=NocConfig(width=3, height=2),
                     net=NetConfig(mac_addr="boardB")),
        engine=engine, fabric=fabric)
    a.boot()
    b.boot()
    server = NetEcho("server", port=7)
    client = NetClient("client", port=7, peer_mac="boardB", count=8)
    engine.run_until_done(engine.all_of([
        b.start_app(3, server), a.start_app(3, client)
    ]), limit=10_000_000)
    engine.run(until=engine.now + 100_000_000)
    assert client.replies == [("echo", i) for i in range(8)]
    assert fabric.frames_lost > 0
