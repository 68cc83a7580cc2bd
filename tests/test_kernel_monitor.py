"""Tests for the Apiary message layer, monitor enforcement and shell API."""

import pytest

from repro.accel import EchoAccel
from repro.cap import Rights
from repro.errors import (
    AccessDenied,
    ProtocolError,
    ServiceError,
    ServiceUnavailable,
    TileFault,
)
from repro.kernel import (
    ApiarySystem,
    FaultConfig,
    MemAccess,
    Message,
    MessageKind,
    NocConfig,
    SystemConfig,
)


class TestMessageFormat:
    def test_wire_bytes_includes_header(self):
        msg = Message(src="a", dst="b", op="x", payload_bytes=100)
        assert msg.wire_bytes == 132

    def test_response_swaps_and_correlates(self):
        req = Message(src="a", dst="b", op="x")
        resp = req.make_response(payload="ok")
        assert resp.src == "b" and resp.dst == "a"
        assert resp.mid == req.mid
        assert resp.kind == MessageKind.RESPONSE

    def test_error_response(self):
        req = Message(src="a", dst="b", op="x")
        err = req.make_response(payload="denied", error=True)
        assert err.kind == MessageKind.ERROR

    def test_cannot_respond_to_response(self):
        req = Message(src="a", dst="b", op="x")
        resp = req.make_response()
        with pytest.raises(ProtocolError):
            resp.make_response()

    def test_validation(self):
        with pytest.raises(ProtocolError):
            Message(src="a", dst="", op="x")
        with pytest.raises(ProtocolError):
            Message(src="a", dst="b", op="x", payload_bytes=-1)
        with pytest.raises(ProtocolError):
            MemAccess(offset=-1, nbytes=1)
        with pytest.raises(ProtocolError):
            MemAccess(offset=0, nbytes=0)

    def test_hand_built_message_is_unstamped(self):
        # ids are stamped by the sending shell from its board's allocator
        # (tests/test_kernel_shell_unit.py); the format itself has no
        # process-wide counter behind it
        assert Message(src="a", dst="b", op="x").mid == 0


def small_system(config=SystemConfig.figure1()):
    system = ApiarySystem(config)
    system.boot()
    return system


def run_app(system, node, accel, endpoint=None, cycles=300_000):
    started = system.start_app(node, accel, endpoint=endpoint)
    system.run_until(started)
    system.run(until=system.engine.now + cycles)
    return accel


class ClientApp:
    """Minimal scripted client built from a plain Accelerator."""

    def __init__(self, script):
        from repro.accel import Accelerator

        self.script = script
        self.results = []
        self.errors = []

        outer = self

        class _App(Accelerator):
            def main(self, shell):
                yield from outer.script(shell, outer)

        self.accel = _App("client")


class TestMonitorEnforcement:
    def test_call_without_send_cap_denied(self):
        system = small_system()
        echo = EchoAccel("echo")
        run_app(system, 2, echo, endpoint="app.echo", cycles=1000)

        def script(shell, out):
            try:
                yield shell.call("app.echo", "ping", payload="x")
            except AccessDenied as err:
                out.errors.append(type(err).__name__)

        client = ClientApp(script)
        run_app(system, 3, client.accel, cycles=50_000)
        assert client.errors == ["AccessDenied"]

    def test_call_with_grant_succeeds(self):
        system = small_system()
        echo = EchoAccel("echo")
        run_app(system, 2, echo, endpoint="app.echo", cycles=1000)

        def script(shell, out):
            resp = yield shell.call("app.echo", "ping", payload="hello",
                                    payload_bytes=64)
            out.results.append(resp.payload)

        client = ClientApp(script)
        started = system.start_app(3, client.accel)
        system.mgmt.grant_send("tile3", "app.echo")
        system.run_until(started)
        system.run(until=system.engine.now + 100_000)
        assert client.results == ["hello"]

    def test_unknown_endpoint_unavailable(self):
        system = small_system()

        def script(shell, out):
            try:
                yield shell.call("app.ghost", "ping")
            except ServiceUnavailable as err:
                out.errors.append(type(err).__name__)

        client = ClientApp(script)
        run_app(system, 3, client.accel, cycles=50_000)
        assert client.errors == ["ServiceUnavailable"]

    def test_monitor_stamps_source_identity(self):
        """An accelerator cannot spoof its src field."""
        system = small_system()
        seen = {}

        from repro.accel import Accelerator

        class Receiver(Accelerator):
            def main(self, shell):
                msg = yield shell.recv()
                seen["src"] = msg.src
                yield shell.reply(msg, payload="ok")

        run_app(system, 2, Receiver("recv"), endpoint="app.recv", cycles=1000)

        def script(shell, out):
            msg = Message(src="tile99-forged", dst="app.recv", op="x")
            admitted = shell.engine.event()
            shell.monitor.submit(msg, admitted.succeed)
            yield admitted

        client = ClientApp(script)
        started = system.start_app(3, client.accel)
        system.mgmt.grant_send("tile3", "app.recv")
        system.run_until(started)
        system.run(until=system.engine.now + 100_000)
        assert seen["src"] == "tile3"

    def test_enforcement_off_allows_everything(self):
        system = small_system(SystemConfig(
            noc=NocConfig(width=3, height=2),
            fault=FaultConfig(enforce=False)))
        echo = EchoAccel("echo")
        run_app(system, 2, echo, endpoint="app.echo", cycles=1000)

        def script(shell, out):
            resp = yield shell.call("app.echo", "ping", payload="open")
            out.results.append(resp.payload)

        client = ClientApp(script)
        run_app(system, 3, client.accel, cycles=100_000)
        assert client.results == ["open"]

    def test_denial_counted_and_traced(self):
        system = small_system()
        system.enable_tracing()
        echo = EchoAccel("echo")
        run_app(system, 2, echo, endpoint="app.echo", cycles=1000)

        def script(shell, out):
            try:
                yield shell.call("app.echo", "ping")
            except AccessDenied:
                out.errors.append("denied")

        client = ClientApp(script)
        run_app(system, 3, client.accel, cycles=50_000)
        assert system.tiles[3].monitor.denials == 1
        assert len(list(system.spans.events("monitor.deny"))) == 1

    def test_rate_limited_monitor_throttles(self):
        fast = small_system()
        slow = small_system(SystemConfig(noc=NocConfig(
            width=3, height=2, rate_limit_flits=0.05, rate_limit_burst=4)))
        durations = {}
        for label, system in (("fast", fast), ("slow", slow)):
            echo = EchoAccel("echo", cost=1)
            run_app(system, 2, echo, endpoint="app.echo", cycles=1000)

            def script(shell, out):
                start = shell.engine.now
                for i in range(20):
                    yield shell.call("app.echo", "ping", payload=i,
                                     payload_bytes=128)
                out.results.append(shell.engine.now - start)

            client = ClientApp(script)
            started = system.start_app(3, client.accel)
            system.mgmt.grant_send("tile3", "app.echo")
            system.run_until(started)
            system.run(until=system.engine.now + 3_000_000)
            durations[label] = client.results[0]
        assert durations["slow"] > 2 * durations["fast"]


class TestMemoryService:
    def test_alloc_write_read_free_roundtrip(self):
        system = small_system()

        def script(shell, out):
            seg = yield shell.alloc(8192)
            yield shell.mem_write(seg, 100, b"apiary!", 7)
            resp = yield shell.mem_read(seg, 100, 7)
            out.results.append(resp.payload)
            yield shell.free(seg)

        client = ClientApp(script)
        run_app(system, 3, client.accel, cycles=300_000)
        assert client.results == [b"apiary!"]

    def test_read_beyond_segment_bounds_denied(self):
        system = small_system()

        def script(shell, out):
            seg = yield shell.alloc(4096)
            try:
                yield shell.mem_read(seg, 4090, 64)
            except Exception as err:
                out.errors.append(type(err).__name__)

        client = ClientApp(script)
        run_app(system, 3, client.accel, cycles=300_000)
        assert client.errors == ["SegmentFault"]

    def test_freed_segment_access_denied(self):
        system = small_system()

        def script(shell, out):
            seg = yield shell.alloc(4096)
            yield shell.free(seg)
            try:
                yield shell.mem_read(seg, 0, 16)
            except Exception as err:
                out.errors.append(type(err).__name__)

        client = ClientApp(script)
        run_app(system, 3, client.accel, cycles=300_000)
        # revoked at the source monitor: AccessDenied/CapabilityRevoked
        assert client.errors and client.errors[0] in (
            "AccessDenied", "CapabilityRevoked"
        )

    def test_two_tiles_cannot_touch_each_others_segments(self):
        system = small_system()
        leak = {}

        def owner_script(shell, out):
            seg = yield shell.alloc(4096)
            leak["cap"] = seg.cap
            yield shell.mem_write(seg, 0, b"secret", 6)
            out.results.append("stored")

        owner = ClientApp(owner_script)
        run_app(system, 2, owner.accel, cycles=300_000)
        assert owner.results == ["stored"]

        def thief_script(shell, out):
            from repro.kernel import MemAccess

            try:
                yield shell.call(shell.mem_service, "mem.read",
                                 payload=MemAccess(offset=0, nbytes=6),
                                 cap=leak["cap"])
                out.results.append("read-succeeded")
            except Exception as err:
                out.errors.append(type(err).__name__)

        thief = ClientApp(thief_script)
        run_app(system, 3, thief.accel, cycles=300_000)
        assert thief.errors == ["AccessDenied"]
        assert not thief.results

    def test_grant_shares_segment_with_peer(self):
        """Section 2's composition: explicit capability grant."""
        system = small_system()
        shared = {}

        def producer_script(shell, out):
            seg = yield shell.alloc(4096)
            yield shell.mem_write(seg, 0, b"frame-data", 10)
            resp = yield shell.grant(seg, "tile3", Rights.READ)
            shared["cap"] = resp.payload["cap"]
            out.results.append("granted")

        producer = ClientApp(producer_script)
        run_app(system, 2, producer.accel, cycles=300_000)
        assert producer.results == ["granted"]

        def consumer_script(shell, out):
            from repro.kernel import MemAccess

            resp = yield shell.call(shell.mem_service, "mem.read",
                                    payload=MemAccess(offset=0, nbytes=10),
                                    cap=shared["cap"])
            out.results.append(resp.payload)
            # read-only grant: writes must fail
            try:
                yield shell.call(shell.mem_service, "mem.write",
                                 payload=MemAccess(offset=0, nbytes=4,
                                                   data=b"oops"),
                                 cap=shared["cap"])
                out.results.append("write-succeeded")
            except Exception as err:
                out.errors.append(type(err).__name__)

        consumer = ClientApp(consumer_script)
        run_app(system, 3, consumer.accel, cycles=300_000)
        assert consumer.results == [b"frame-data"]
        assert consumer.errors == ["AccessDenied"]

    def test_alloc_sizes_are_flexible(self):
        """Segments honour odd sizes with small rounding (Section 4.6)."""
        system = small_system()

        def script(shell, out):
            seg = yield shell.alloc(100_001)
            out.results.append(seg.size)

        client = ClientApp(script)
        run_app(system, 3, client.accel, cycles=300_000)
        assert 100_001 <= client.results[0] <= 100_064


class TestShellApi:
    def test_call_timeout_fires(self):
        system = small_system()

        from repro.accel import Accelerator

        class BlackHole(Accelerator):
            def main(self, shell):
                while True:
                    yield shell.recv()  # never replies

        run_app(system, 2, BlackHole("hole"), endpoint="app.hole", cycles=1000)

        def script(shell, out):
            try:
                yield shell.call("app.hole", "ping", timeout=5_000)
            except ServiceUnavailable as err:
                out.errors.append("timeout")

        client = ClientApp(script)
        started = system.start_app(3, client.accel)
        system.mgmt.grant_send("tile3", "app.hole")
        system.run_until(started)
        system.run(until=system.engine.now + 100_000)
        assert client.errors == ["timeout"]
        assert client.accel.shell.calls_timed_out == 1

    def test_concurrent_calls_from_one_tile(self):
        system = small_system()
        echo = EchoAccel("echo", cost=100)
        run_app(system, 2, echo, endpoint="app.echo", cycles=1000)

        def script(shell, out):
            events = [shell.call("app.echo", "ping", payload=i)
                      for i in range(8)]
            responses = yield shell.engine.all_of(events)
            out.results.append(sorted(r.payload for r in responses))

        client = ClientApp(script)
        started = system.start_app(3, client.accel)
        system.mgmt.grant_send("tile3", "app.echo")
        system.run_until(started)
        system.run(until=system.engine.now + 500_000)
        assert client.results == [list(range(8))]

    def test_notify_is_one_way(self):
        system = small_system()
        from repro.accel import SinkAccel

        sink = SinkAccel("sink")
        run_app(system, 2, sink, endpoint="app.sink", cycles=1000)

        def script(shell, out):
            for i in range(5):
                yield shell.notify("app.sink", "tick", payload=i)
            out.results.append("sent")

        client = ClientApp(script)
        started = system.start_app(3, client.accel)
        system.mgmt.grant_send("tile3", "app.sink")
        system.run_until(started)
        system.run(until=system.engine.now + 100_000)
        assert sink.consumed == 5

    def test_messages_buffered_until_accelerator_starts(self):
        system = small_system()
        # register endpoint pointing at an empty tile, send, then start
        system.mgmt.register_endpoint("app.late", 4)
        system.mgmt.grant_send("tile3", "app.late")

        def script(shell, out):
            yield shell.notify("app.late", "early", payload="queued")
            out.results.append("sent")

        client = ClientApp(script)
        run_app(system, 3, client.accel, cycles=20_000)

        from repro.accel import Accelerator

        got = []

        class Late(Accelerator):
            def main(self, shell):
                msg = yield shell.recv()
                got.append(msg.payload)

        started = system.mgmt.load(4, Late("late"))
        system.run_until(started)
        system.run(until=system.engine.now + 50_000)
        assert got == ["queued"]
