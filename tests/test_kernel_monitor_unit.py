"""Unit tests for the Monitor in isolation (real NoC, no ApiarySystem)."""

import pytest

from repro.cap import CapabilityStore, Rights
from repro.errors import AccessDenied, ServiceUnavailable, TileFault
from repro.kernel import Message, MessageKind, Monitor
from repro.kernel.monitor import MONITOR_EGRESS_CYCLES
from repro.mem import SegmentTable
from repro.noc import Mesh2D, Network
from repro.sim import Engine


def make_pair(enforce=True, **monitor_kwargs):
    """Two monitors on a 2x1 NoC, names 'left' and 'right'."""
    engine = Engine()
    network = Network(engine, Mesh2D(2, 1))
    caps = CapabilityStore()
    segments = SegmentTable()
    name_table = {"left": 0, "right": 1}
    monitors = {}
    for name, node in name_table.items():
        monitors[name] = Monitor(
            engine, name, network.interface(node), caps, segments,
            name_table, enforce=enforce, **monitor_kwargs,
        )
    return engine, caps, monitors


def drive(engine, event, limit=1_000_000):
    return engine.run_until_done(event, limit=limit)


def submit(engine, monitor, msg):
    """``monitor.submit(msg)`` as an event: it succeeds once the NoC has
    admitted ``msg``, or fails with the refusal."""
    done = engine.event()
    monitor.submit(msg, lambda error: done.succeed(msg) if error is None
                   else done.fail(error))
    return done


def test_submit_delivers_to_peer_monitor():
    engine, caps, monitors = make_pair()
    caps.mint("left", Rights.SEND, endpoint="right")
    got = []
    monitors["right"].deliver = got.append
    msg = Message(src="left", dst="right", op="hello")
    drive(engine, submit(engine, monitors["left"], msg))
    engine.run(until=engine.now + 1000)
    assert len(got) == 1
    assert got[0].op == "hello"
    assert monitors["left"].messages_sent == 1
    assert monitors["right"].messages_received == 1


def test_submit_without_cap_denied_before_noc():
    engine, caps, monitors = make_pair()
    admitted = submit(engine, monitors["left"],
                      Message(src="left", dst="right", op="x"))
    with pytest.raises(AccessDenied):
        drive(engine, admitted)
    assert monitors["left"].denials == 1
    assert monitors["left"].messages_sent == 0


def test_unknown_destination_unavailable():
    engine, caps, monitors = make_pair()
    admitted = submit(engine, monitors["left"],
                      Message(src="left", dst="ghost", op="x"))
    with pytest.raises(ServiceUnavailable):
        drive(engine, admitted)


def test_responses_need_no_send_cap():
    """Replies flow back without explicit authorization (the request was
    authorized; answers must not be blockable by cap asymmetry)."""
    engine, caps, monitors = make_pair()
    request = Message(src="right", dst="left", op="q")
    response = request.make_response(payload="a")
    admitted = submit(engine, monitors["left"], response)
    drive(engine, admitted)  # no AccessDenied despite zero caps


def test_enforce_false_costs_zero_extra_cycles():
    lat = {}
    for enforce in (True, False):
        engine, caps, monitors = make_pair(enforce=enforce)
        if enforce:
            caps.mint("left", Rights.SEND, endpoint="right")
        got = []
        monitors["right"].deliver = lambda m: got.append(engine.now)
        t0 = engine.now
        drive(engine, submit(engine, monitors["left"],
            Message(src="left", dst="right", op="x")
        ))
        engine.run(until=engine.now + 1000)
        lat[enforce] = got[0] - t0
    assert lat[True] - lat[False] == MONITOR_EGRESS_CYCLES + 1  # +ingress


def test_drained_monitor_rejects_submit_and_nacks_requests():
    engine, caps, monitors = make_pair()
    caps.mint("left", Rights.SEND, endpoint="right")
    monitors["right"].drain()
    # direct submit at the drained tile fails immediately
    dead = submit(engine, monitors["right"],
                  Message(src="right", dst="left", op="x"))
    with pytest.raises(TileFault):
        drive(engine, dead)
    # a request arriving at the drained tile is NACKed back to the sender
    nacks = []
    monitors["left"].deliver = nacks.append
    drive(engine, submit(engine, monitors["left"],
        Message(src="left", dst="right", op="ping")
    ))
    engine.run(until=engine.now + 2000)
    assert monitors["right"].nacks_sent == 1
    assert len(nacks) == 1
    assert nacks[0].kind == MessageKind.ERROR


def test_drained_monitor_never_nacks_events():
    """No error loops: one-way events to a drained tile just vanish."""
    engine, caps, monitors = make_pair()
    caps.mint("left", Rights.SEND, endpoint="right")
    monitors["right"].drain()
    deliveries = []
    monitors["left"].deliver = deliveries.append
    drive(engine, submit(engine, monitors["left"],
        Message(src="left", dst="right", op="tick", kind=MessageKind.EVENT)
    ))
    engine.run(until=engine.now + 2000)
    assert monitors["right"].nacks_sent == 0
    assert not deliveries


def test_drain_flushes_queued_egress():
    engine, caps, monitors = make_pair()
    caps.mint("left", Rights.SEND, endpoint="right")
    pending = [submit(engine, monitors["left"],
                      Message(src="left", dst="right", op=f"m{i}"))
               for i in range(5)]
    monitors["left"].drain()  # before the engine ran at all
    engine.run(until=engine.now + 1000)
    failures = sum(1 for ev in pending if ev.triggered and ev.failed)
    assert failures >= 4  # everything still queued fails fast


def test_undrain_restores_service():
    engine, caps, monitors = make_pair()
    caps.mint("left", Rights.SEND, endpoint="right")
    monitors["left"].drain()
    monitors["left"].undrain()
    got = []
    monitors["right"].deliver = got.append
    drive(engine, submit(engine, monitors["left"],
        Message(src="left", dst="right", op="back")
    ))
    engine.run(until=engine.now + 1000)
    assert got


def test_identity_stamping_at_submit():
    engine, caps, monitors = make_pair(enforce=False)
    got = []
    monitors["right"].deliver = got.append
    msg = Message(src="imposter", dst="right", op="x")
    drive(engine, submit(engine, monitors["left"], msg))
    engine.run(until=engine.now + 1000)
    assert got[0].src == "left"


def test_logic_cost_tracks_configuration():
    engine, caps, monitors = make_pair(cap_table_size=256)
    big = monitors["left"].logic_cost()
    engine2, caps2, monitors2 = make_pair(cap_table_size=16)
    small = monitors2["left"].logic_cost()
    assert big.logic_cells > small.logic_cells
