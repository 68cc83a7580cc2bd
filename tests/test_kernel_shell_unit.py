"""Unit tests for the Shell against a scriptable fake monitor.

The integration suites exercise the shell through the full NoC stack;
these tests pin down the shell's own contract — correlation, admission
failure propagation, timeout semantics, late-response handling — in
isolation, where failure modes can be injected precisely.
"""

import pytest

from repro.errors import AccessDenied, ServiceError, ServiceUnavailable
from repro.kernel import Message, MessageKind
from repro.kernel.shell import Shell
from repro.sim import Engine


class FakeMonitor:
    """Monitor stand-in: records submissions; test decides their fate."""

    def __init__(self, engine, tile_name="tileX"):
        self.engine = engine
        self.tile_name = tile_name
        self.deliver = None
        self.submitted = []

    def submit(self, msg):
        done = self.engine.event("fake.submit")
        self.submitted.append((msg, done))
        return done

    # test helpers ---------------------------------------------------------

    def admit(self, index=-1):
        msg, done = self.submitted[index]
        done.succeed(msg)
        return msg

    def deny(self, exc, index=-1):
        _msg, done = self.submitted[index]
        done.fail(exc)

    def respond(self, request, payload="ok", error=False):
        response = request.make_response(payload=payload, error=error)
        self.deliver(response)


@pytest.fixture
def rig():
    engine = Engine()
    monitor = FakeMonitor(engine)
    shell = Shell(engine, monitor)
    return engine, monitor, shell


def collect(engine, event):
    out = {}

    def run():
        try:
            out["value"] = yield event
        except Exception as err:
            out["error"] = err

    engine.process(run())
    return out


def test_shells_sharing_an_allocator_stamp_distinct_mids():
    import itertools

    engine = Engine()
    mids = itertools.count(1)
    monitors = [FakeMonitor(engine, f"tile{i}") for i in range(2)]
    left, right = (Shell(engine, m, mids=mids) for m in monitors)
    left.call("svc", "op")
    right.notify("svc", "tick")
    left.call("svc", "op")
    stamped = [monitors[i].submitted[j][0].mid
               for i, j in ((0, 0), (1, 0), (0, 1))]
    assert stamped == [1, 2, 3]
    # a free-standing shell numbers its own messages from 1
    lone = FakeMonitor(engine, "lone")
    Shell(engine, lone).call("svc", "op")
    assert lone.submitted[0][0].mid == 1


def test_call_resolves_with_matching_response(rig):
    engine, monitor, shell = rig
    out = collect(engine, shell.call("svc", "op", payload="q"))
    engine.run()
    request = monitor.admit()
    monitor.respond(request, payload="a")
    engine.run()
    assert out["value"].payload == "a"
    assert shell.calls_made == 1


def test_call_admission_denial_propagates(rig):
    engine, monitor, shell = rig
    out = collect(engine, shell.call("svc", "op"))
    engine.run()
    monitor.deny(AccessDenied("no cap"))
    engine.run()
    assert isinstance(out["error"], AccessDenied)
    assert shell._pending == {}


def test_error_response_becomes_service_error(rig):
    engine, monitor, shell = rig
    out = collect(engine, shell.call("svc", "op"))
    engine.run()
    request = monitor.admit()
    monitor.respond(request, payload="kaboom", error=True)
    engine.run()
    assert isinstance(out["error"], ServiceError)
    assert "kaboom" in str(out["error"])
    assert shell.calls_failed == 1


def test_timeout_fails_call_and_drops_late_response(rig):
    engine, monitor, shell = rig
    out = collect(engine, shell.call("svc", "op", timeout=100))
    engine.run()
    request = monitor.admit()
    engine.run(until=200)  # timeout fires
    assert isinstance(out["error"], ServiceUnavailable)
    assert shell.calls_timed_out == 1
    # a straggler response must be dropped silently, not crash or misroute
    monitor.respond(request, payload="too late")
    engine.run()
    assert "value" not in out


def test_concurrent_calls_correlate_by_mid(rig):
    engine, monitor, shell = rig
    out1 = collect(engine, shell.call("svc", "op", payload=1))
    out2 = collect(engine, shell.call("svc", "op", payload=2))
    engine.run()
    req1 = monitor.admit(0)
    req2 = monitor.admit(1)
    # answer in reverse order
    monitor.respond(req2, payload="second")
    monitor.respond(req1, payload="first")
    engine.run()
    assert out1["value"].payload == "first"
    assert out2["value"].payload == "second"


def test_requests_and_events_go_to_inbox_not_pending(rig):
    engine, monitor, shell = rig
    incoming = Message(src="peer", dst="tileX", op="ping",
                       kind=MessageKind.REQUEST)
    event = Message(src="peer", dst="tileX", op="tick",
                    kind=MessageKind.EVENT)
    monitor.deliver(incoming)
    monitor.deliver(event)
    out = collect(engine, shell.recv())
    engine.run()
    assert out["value"].op == "ping"
    out2 = collect(engine, shell.recv())
    engine.run()
    assert out2["value"].op == "tick"


def test_unmatched_response_is_dropped(rig):
    engine, monitor, shell = rig
    orphan = Message(src="peer", dst="tileX", op="x",
                     kind=MessageKind.RESPONSE, mid=424242)
    monitor.deliver(orphan)  # must not raise or land in the inbox
    assert len(shell.inbox) == 0


def test_reply_builds_correlated_response(rig):
    engine, monitor, shell = rig
    request = Message(src="peer", dst="tileX", op="ping")
    shell.reply(request, payload="pong", payload_bytes=4)
    msg, _done = monitor.submitted[0]
    assert msg.kind == MessageKind.RESPONSE
    assert msg.mid == request.mid
    assert msg.dst == "peer"


def test_alloc_parses_memory_service_reply(rig):
    engine, monitor, shell = rig
    out = collect(engine, shell.alloc(4096, label="buf"))
    engine.run()
    request = monitor.admit()
    assert request.op == "mem.alloc"
    assert request.payload == {"size": 4096, "label": "buf"}
    monitor.respond(request, payload={"cap": "REF", "sid": 9, "size": 4096})
    engine.run()
    seg = out["value"]
    assert (seg.cap, seg.sid, seg.size) == ("REF", 9, 4096)


def test_alloc_denial_propagates(rig):
    engine, monitor, shell = rig
    out = collect(engine, shell.alloc(4096))
    engine.run()
    monitor.deny(AccessDenied("no mem cap"))
    engine.run()
    assert isinstance(out["error"], AccessDenied)


def test_notify_tracks_admission_only(rig):
    engine, monitor, shell = rig
    out = collect(engine, shell.notify("svc", "tick", payload=1))
    engine.run()
    msg = monitor.admit()
    assert msg.kind == MessageKind.EVENT
    engine.run()
    assert out["value"] is msg  # admission event, no response expected


def test_spawn_registers_children(rig):
    engine, monitor, shell = rig

    def child():
        yield 5

    proc = shell.spawn("worker", child())
    assert proc in shell.children
    engine.run()
    assert not proc.alive


def test_serve_hands_queued_messages_over_first_then_each_on_delivery(rig):
    engine, monitor, shell = rig
    seen = []
    for op in ("early", "later"):
        monitor.deliver(Message(src="peer", dst="tileX", op=op))
    shell.serve(lambda msg: seen.append((engine.now, msg.op)))
    assert seen == [(0, "early"), (0, "later")] and len(shell.inbox) == 0
    engine.run(until=7)
    monitor.deliver(Message(src="peer", dst="tileX", op="tick",
                            kind=MessageKind.EVENT))
    request = shell.call("svc", "op")  # a response still finds its caller
    monitor.respond(monitor.admit())
    engine.run()
    assert seen[2:] == [(7, "tick")]
    assert request.value.payload == "ok"


def test_stop_serving_returns_the_tile_to_recv_and_starts_an_incarnation(rig):
    engine, monitor, shell = rig
    seen = []
    shell.serve(seen.append)
    shell.stop_serving()
    assert shell.incarnation == 1
    monitor.deliver(Message(src="peer", dst="tileX", op="ping"))
    assert seen == []
    out = collect(engine, shell.recv())
    engine.run()
    assert out["value"].op == "ping"
