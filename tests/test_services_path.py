"""The OS services' request path, pinned op by op.

Every row is ``name -> (submit offset, reply offset, outcome)``: the cycle a
caller's shell issued the request, the cycle the answer reached it, and what
the answer was — the payload's ``repr``, ``("error", text)`` for an ERROR
reply, ``("denied", type)`` for a refusal at the caller's own monitor, and a
reply offset of ``None`` for a request nobody answers.  Callers are empty
tiles holding a SEND grant for the service, so nothing but the request
itself runs on the board; the service's own spans (``service:<op>`` and
``dram.access``) are pinned beside the rows.

The rows and spans were captured on the implementation where both services
loop on ``shell.recv()`` and serve every message in a process of its own;
they hold unchanged on the one that answers messages from the delivery
callback.  The ``schedule()`` budgets at the bottom pin what that change
*did* move.

To re-check the rows against another tree, run this file from a checkout of
*that* tree (``tests/conftest.py`` imports ``perf``, which puts the
checkout's own ``src/`` first on ``sys.path``): ``cp
tests/test_services_path.py <tree>/tests/ && cd <tree> && PYTHONPATH=src
python -m pytest tests/test_services_path.py -k "not budget"``.
"""

import pytest

from repro.cap.capability import Rights
from repro.cluster.service import ClusterPortedService
from repro.errors import ProtocolError
from repro.kernel import (
    ApiarySystem,
    FaultConfig,
    MemAccess,
    NetConfig,
    NocConfig,
    SystemConfig,
)
from repro.kernel.services import HEARTBEAT_PORT
from repro.net import EthernetFabric
from repro.net.transport import HOST_TIMEOUT, HOST_WINDOW, ReliableMux
from repro.sim import Engine

from tests.conftest import CountingEngine, count_calls

SEG = 256 * 1024  # room for two rows of one bank (bank stride: 16 rows)
SAME_BANK = 2 * 8 * 4096  # channel 0, bank 0, the next row: a conflict
OTHER_BANK = 2 * 4096  # channel 0, bank 1


class Rows:
    """Requests issued through callers' shells, logged as they complete."""

    def __init__(self, engine, t0):
        self.engine = engine
        self.t0 = t0
        self.rows = {}
        self.replies = {}

    def issue(self, name, event):
        row = self.rows[name] = [self.engine.now - self.t0, None, None]

        def done(ev):
            row[1] = self.engine.now - self.t0
            if not ev.failed:
                self.replies[name] = ev.value.payload
                row[2] = repr(ev.value.payload)
            elif type(ev.value).__name__ == "ServiceError":
                row[2] = ("error", str(ev.value))
            else:
                row[2] = ("denied", type(ev.value).__name__)

        event.add_callback(done)
        return self

    def at(self, offset):
        self.engine.run(until=self.t0 + offset)
        return self

    def table(self):
        return {name: tuple(row) for name, row in self.rows.items()}


def service_spans(spans, t0, *names):
    """``(name, source, start, end, detail)`` of the spans named, in the
    order they were opened; offsets count from ``t0``."""
    return [(rec.name, rec.source, rec.start - t0,
             rec.end - t0 if rec.end >= 0 else None, dict(rec.detail or {}))
            for rec in spans if rec.name.startswith(names)]


# -- (a) the memory tile -------------------------------------------------------


def memory_board(engine=None, enforce=True):
    """A 3x2 board: ``svc.mem`` on tile 0, callers on tiles 2 and 3."""
    system = ApiarySystem(
        SystemConfig(noc=NocConfig(width=3, height=2),
                     fault=FaultConfig(enforce=enforce)),
        engine=engine or Engine())
    system.enable_tracing()
    system.boot()
    for caller in ("tile2", "tile3"):
        system.mgmt.grant_send(caller, "svc.mem")
    return system


def mem_call(system, node, op, payload=None, cap=None, nbytes=0):
    return system.tiles[node].shell.call("svc.mem", op, payload=payload,
                                         payload_bytes=nbytes, cap=cap)


def read(system, node, cap, offset, nbytes):
    return mem_call(system, node, "mem.read",
                    MemAccess(offset=offset, nbytes=nbytes), cap)


def write(system, node, cap, offset, data):
    return mem_call(system, node, "mem.write",
                    MemAccess(offset=offset, nbytes=len(data), data=data),
                    cap, nbytes=len(data))


def allocated(system, size):
    """``(t0, log, capability)`` of a fresh board's first segment,
    allocated by tile 2 at offset 0."""
    t0 = system.engine.now
    log = Rows(system.engine, t0)
    log.issue("alloc", mem_call(system, 2, "mem.alloc", {"size": size}))
    return t0, log, log.at(1_000).replies["alloc"]["cap"]


ZEROS = "b'" + "\\x00" * 8 + "'"


def test_alloc_write_read_grant_free_cycle_by_cycle():
    """alloc/free pay 4 cycles at the service and grant 2; a write and a
    read pay their DRAM access.  The grantee reads with the derived READ
    capability; its write, and every access after the free, is refused by
    the caller's own monitor."""
    system = memory_board()
    t0 = system.engine.now
    log = Rows(system.engine, t0)
    log.issue("alloc", mem_call(system, 2, "mem.alloc",
                                {"size": 5000, "label": "buf"}))
    cap = log.at(1_000).replies["alloc"]["cap"]
    log.issue("write", write(system, 2, cap, 100, b"hello"))
    log.at(2_000).issue("read", read(system, 2, cap, 98, 9))
    log.at(3_000).issue("grant", mem_call(
        system, 2, "mem.grant", {"to": "tile3", "rights": Rights.READ}, cap))
    child = log.at(4_000).replies["grant"]["cap"]
    log.issue("grantee read", read(system, 3, child, 100, 5))
    log.at(5_000).issue("grantee write", write(system, 3, child, 0, b"x"))
    sid = log.replies["alloc"]["sid"]
    log.at(6_000).issue("free", mem_call(system, 2, "mem.free", {"sid": sid},
                                         cap))
    log.at(7_000).issue("read after free", read(system, 2, cap, 0, 4))
    log.issue("grantee after free", read(system, 3, child, 0, 4))
    log.at(8_000)
    assert log.table() == {
        "alloc": (0, 27, "{'cap': capref(1:b7faa10b), 'sid': 1, 'size': 5056}"),
        "write": (1_000, 1_039, "'written'"),
        "read": (2_000, 2_033, "b'\\x00\\x00hello\\x00\\x00'"),
        "grant": (3_000, 3_025, "{'cap': capref(1:98adac26)}"),
        "grantee read": (4_000, 4_029, "b'hello'"),
        "grantee write": (5_000, 5_000, ("denied", "AccessDenied")),
        "free": (6_000, 6_026, "'freed'"),
        "read after free": (7_000, 7_000, ("denied", "AccessDenied")),
        "grantee after free": (7_000, 7_000, ("denied", "AccessDenied"))}
    assert service_spans(system.spans, t0, "service:", "dram.") == [
        ("service:mem.alloc", "tile0", 11, 15, {"mid": 1, "op": "mem.alloc"}),
        ("service:mem.write", "tile0", 1_012, 1_028,
         {"mid": 2, "op": "mem.write"}),
        ("dram.access", "dram", 1_012, 1_028, {"nbytes": 5, "write": True}),
        ("service:mem.read", "tile0", 2_011, 2_021,
         {"mid": 3, "op": "mem.read"}),
        ("dram.access", "dram", 2_011, 2_021, {"nbytes": 9, "write": False}),
        ("service:mem.grant", "tile0", 3_011, 3_013,
         {"mid": 4, "op": "mem.grant"}),
        ("service:mem.read", "tile0", 4_009, 4_019,
         {"mid": 5, "op": "mem.read"}),
        ("dram.access", "dram", 4_009, 4_019, {"nbytes": 5, "write": False}),
        ("service:mem.free", "tile0", 6_011, 6_015,
         {"mid": 7, "op": "mem.free"})]


def test_concurrent_reads_overlap_across_banks_and_conflict_within_one():
    """Two reads 5 cycles apart on two banks of one channel overlap (row
    miss each, the bus shared); then a row hit, a row conflict on the same
    bank, and a read that spans two rows (a conflict, then a miss on the
    other channel)."""
    system = memory_board()
    t0, log, cap = allocated(system, SEG)
    log.issue("bank0", read(system, 2, cap, 0, 8))
    log.issue("bank1", read(system, 2, cap, OTHER_BANK, 8))
    log.at(2_000).issue("row0", read(system, 2, cap, 0, 8))
    log.issue("row1", read(system, 2, cap, SAME_BANK, 8))
    log.issue("two rows", read(system, 2, cap, 4096 - 4, 8))
    log.at(3_000)
    assert log.table() == {
        "alloc": (0, 27,
                  "{'cap': capref(1:b7faa10b), 'sid': 1, 'size': 262144}"),
        "bank0": (1_000, 1_039, ZEROS), "bank1": (1_000, 1_045, ZEROS),
        "row0": (2_000, 2_033, ZEROS), "row1": (2_000, 2_050, ZEROS),
        "two rows": (2_000, 2_071, ZEROS)}
    assert service_spans(system.spans, t0, "dram.") == [
        ("dram.access", "dram", 1_011, 1_027, {"nbytes": 8, "write": False}),
        ("dram.access", "dram", 1_016, 1_032, {"nbytes": 8, "write": False}),
        ("dram.access", "dram", 2_011, 2_021, {"nbytes": 8, "write": False}),
        ("dram.access", "dram", 2_016, 2_038, {"nbytes": 8, "write": False}),
        ("dram.access", "dram", 2_021, 2_059, {"nbytes": 8, "write": False})]


def test_every_refusal_the_service_makes_is_an_error_reply():
    """Monitors off (the A2 ablation): what the caller's monitor would have
    refused reaches the service, whose own checks answer with an error in
    the cycle the request arrives."""
    system = memory_board(enforce=False)
    t0, log, cap = allocated(system, 4096)
    log.issue("no cap", mem_call(system, 2, "mem.read",
                                 MemAccess(offset=0, nbytes=4)))
    log.issue("not an access", mem_call(system, 2, "mem.read", {"x": 1},
                                        cap))
    log.issue("out of range", read(system, 2, cap, 4090, 64))
    log.issue("not the holder", read(system, 3, cap, 0, 4))
    log.issue("wrong sid", mem_call(system, 2, "mem.free", {"sid": 9}, cap))
    log.issue("free, no cap", mem_call(system, 2, "mem.free", {"sid": 0}))
    log.issue("grant, no cap", mem_call(
        system, 2, "mem.grant", {"to": "tile3", "rights": Rights.READ}))
    log.issue("zero size", mem_call(system, 2, "mem.alloc", {"size": 0}))
    log.issue("too big", mem_call(system, 2, "mem.alloc", {"size": 1 << 31}))
    log.issue("unknown op", mem_call(system, 2, "mem.nope"))
    log.at(2_000)
    assert log.table() == {
        "alloc": (0, 21, "{'cap': capref(1:b7faa10b), 'sid': 1, 'size': 4096}"),
        "no cap": (1_000, 1_018, (
            "error", "AccessDenied: mem.read needs a memory capability")),
        "not an access": (1_000, 1_021, (
            "error", "ProtocolError: mem.read payload must be a MemAccess")),
        "out of range": (1_000, 1_024, (
            "error",
            "SegmentFault: offset 4090+64 outside segment 1 (size 4096)")),
        "not the holder": (1_000, 1_013, (
            "error", "AccessDenied: holder 'tile3' presented invalid ref "
                     "capref(1:b7faa10b)")),
        "wrong sid": (1_000, 1_027, (
            "error", "AccessDenied: capability does not cover segment 9")),
        "free, no cap": (1_000, 1_030, (
            "error", "AccessDenied: mem.free needs the segment capability")),
        "grant, no cap": (1_000, 1_033, (
            "error", "AccessDenied: mem.grant needs the parent capability")),
        "zero size": (1_000, 1_036, (
            "error", "AllocationError: allocation size must be >= 1, got 0")),
        "too big": (1_000, 1_039, (
            "error", "AllocationError: no extent of 2147483648 bytes "
                     "(free=1073737728, largest=1073737728)")),
        "unknown op": (1_000, 1_042, ("error", "unknown op 'mem.nope'"))}
    refused = [(name, start, end, detail["mid"], detail["error"])
               for name, _tile, start, end, detail
               in service_spans(system.spans, t0, "service:")[1:]]
    assert refused == [
        ("service:mem.read", 1_006, 1_006, 5, "AccessDenied"),
        ("service:mem.read", 1_009, 1_009, 2, "AccessDenied"),
        ("service:mem.read", 1_012, 1_012, 3, "ProtocolError"),
        ("service:mem.read", 1_015, 1_015, 4, "SegmentFault"),
        ("service:mem.free", 1_018, 1_018, 6, "AccessDenied"),
        ("service:mem.free", 1_021, 1_021, 7, "AccessDenied"),
        ("service:mem.grant", 1_024, 1_024, 8, "AccessDenied"),
        ("service:mem.alloc", 1_027, 1_027, 9, "AllocationError"),
        ("service:mem.alloc", 1_030, 1_030, 10, "AllocationError")]


def test_a_memory_tile_drained_mid_read_never_replies():
    """The read's DRAM access is under way when tile 0 fail-stops: the
    caller gets no answer (its span stays open), and the next request is
    NACKed by the drained monitor."""
    system = memory_board(Engine())
    t0, log, cap = allocated(system, SEG)
    log.issue("read", read(system, 2, cap, 0, 4096))
    log.at(1_030)
    assert system.mem_service.requests_served == 2
    system.mgmt.fail_stop(0)
    log.at(1_500).issue("after the drain", read(system, 2, cap, 0, 4))
    log.at(3_000)
    assert log.table() == {
        "alloc": (0, 27,
                  "{'cap': capref(1:b7faa10b), 'sid': 1, 'size': 262144}"),
        "read": (1_000, None, None),
        "after the drain": (1_500, 1_520, ("error", "tile0 is fail-stopped"))}
    assert service_spans(system.spans, t0, "service:") == [
        ("service:mem.alloc", "tile0", 11, 15, {"mid": 1, "op": "mem.alloc"}),
        ("service:mem.read", "tile0", 1_011, None,
         {"mid": 2, "op": "mem.read"})]


# -- (b) the network tile ---------------------------------------------------------


def two_boards(engine=None, boot=True):
    """Board A (10G, ``boardA``) and board B (100G, ``boardB``) on one
    500-cycle fabric; on each, ``svc.net`` is tile 1 and tiles 2 and 3 are
    callers.  Unbooted, the run stops on the cycle the later network
    service starts — both MACs are still coming up."""
    engine = engine or Engine()
    fabric = EthernetFabric(engine, latency_cycles=500)
    boards = [ApiarySystem(
        SystemConfig(noc=NocConfig(width=3, height=2),
                     net=NetConfig(mac_kind=kind, mac_addr=mac)),
        engine=engine, fabric=fabric)
        for kind, mac in (("10g", "boardA"), ("100g", "boardB"))]
    for system in boards:
        system.enable_tracing()
        for caller in ("tile2", "tile3"):
            system.mgmt.grant_send(caller, "svc.net")
            system.mgmt.grant_send("tile1", caller)  # its net.rx events
    if boot:
        for system in boards:
            system.boot()
    else:
        for system in boards:
            engine.run_until_done(system._boot_events[-1])
    return engine, boards


def net_call(system, node, op, payload=None, nbytes=0):
    return system.tiles[node].shell.call("svc.net", op, payload=payload,
                                         payload_bytes=nbytes)


def send(system, node, dst_mac, port, data, nbytes=64):
    return system.tiles[node].shell.net_send(dst_mac, port, data, nbytes)


def post(system, node, dst_mac, port, data, nbytes=64):
    return system.tiles[node].shell.net_post(dst_mac, port, data, nbytes)


def rx(system, node):
    """``(port, data, src_mac)`` of every ``net.rx`` queued at a caller."""
    return [(msg.payload["port"], msg.payload["data"],
             msg.payload["src_mac"])
            for msg in system.tiles[node].shell.inbox._items]


def test_requests_that_arrive_while_the_macs_come_up():
    """Issued the cycle the later network service starts: board A's 10G
    reset takes 1 000 cycles, board B's 100G alignment 2 500, and requests
    that arrive meanwhile are served in order when it is over.  A's frame
    reaches B before B's MAC is aligned and is dropped: the transport's
    retransmission (20 000 cycles on) is what answers A's send."""
    engine, (a, b) = two_boards(boot=False)
    t0 = engine.now
    log = Rows(engine, t0)
    log.issue("A bind", net_call(a, 2, "net.bind", {"port": 7}))
    log.issue("B bind", net_call(b, 2, "net.bind", {"port": 9}))
    log.issue("A send", send(a, 3, "boardB", 9, "early-a"))
    log.issue("B send", send(b, 3, "boardA", 7, "early-b"))
    log.at(25_000)
    assert log.table() == {
        "A bind": (0, 1_009, "'bound'"), "B bind": (0, 2_509, "'bound'"),
        "A send": (0, 22_029, "'sent'"), "B send": (0, 3_526, "'sent'")}
    assert (rx(a, 2), rx(b, 2)) == ([(7, "early-b", "boardB")],
                                    [(9, "early-a", "boardA")])
    assert service_spans(a.spans, t0, "service:") == [
        ("service:net.bind", "tile1", 1_000, 1_000,
         {"mid": 1, "op": "net.bind"}),
        ("service:net.send", "tile1", 1_000, 22_018,
         {"mid": 2, "op": "net.send"})]
    assert service_spans(b.spans, t0, "service:") == [
        ("service:net.bind", "tile1", 2_500, 2_500,
         {"mid": 1, "op": "net.bind"}),
        ("service:net.send", "tile1", 2_500, 3_515,
         {"mid": 2, "op": "net.send"})]


def test_bind_and_send_on_a_10g_and_a_100g_board():
    """A bind answers on arrival (a port bound by another tile is an
    error, a rebind by its owner is not); a send answers once the peer's
    transport ACKs the frame, whether or not a tile there binds its port."""
    engine, (a, b) = two_boards()
    t0 = engine.now
    log = Rows(engine, t0)
    log.issue("bind", net_call(a, 2, "net.bind", {"port": 7}))
    log.issue("rebind", net_call(a, 2, "net.bind", {"port": 7}))
    log.issue("taken", net_call(a, 3, "net.bind", {"port": 7}))
    log.issue("B bind", net_call(b, 2, "net.bind", {"port": 9}))
    log.issue("unknown op", net_call(a, 2, "net.nope"))
    log.at(1_000).issue("A to B", send(a, 2, "boardB", 9, "a0", 1500))
    log.issue("A to B again", send(a, 3, "boardB", 9, "a1"))
    log.issue("B to A", send(b, 2, "boardA", 7, "b0"))
    log.issue("B to nobody", send(b, 3, "boardA", 8, "b1"))
    log.at(10_000)
    assert log.table() == {
        "bind": (0, 19, "'bound'"), "rebind": (0, 28, "'bound'"),
        "taken": (0, 26, ("error", "port 7 taken")),
        "B bind": (0, 18, "'bound'"),
        "unknown op": (0, 33, ("error", "unknown op 'net.nope'")),
        "A to B": (1_000, 2_418, "'sent'"),
        "A to B again": (1_000, 2_436, "'sent'"),
        "B to A": (1_000, 2_037, "'sent'"),
        "B to nobody": (1_000, 2_052, "'sent'")}
    assert (rx(a, 2), rx(b, 2)) == (
        [(7, "b0", "boardB")], [(9, "a0", "boardA"), (9, "a1", "boardA")])
    assert (a.net_service.frames_forwarded, a.net_service.rx_unbound) == (1, 1)
    assert service_spans(a.spans, t0, "service:") == [
        ("service:net.bind", "tile1", 9, 9, {"mid": 1, "op": "net.bind"}),
        ("service:net.bind", "tile1", 12, 12,
         {"error": "PortTaken", "mid": 3, "op": "net.bind"}),
        ("service:net.bind", "tile1", 15, 15, {"mid": 2, "op": "net.bind"}),
        ("service:net.nope", "tile1", 20, 20,
         {"error": "UnknownOp", "mid": 4, "op": "net.nope"}),
        ("service:net.send", "tile1", 1_103, 2_409,
         {"mid": 5, "op": "net.send"}),
        ("service:net.send", "tile1", 1_110, 2_425,
         {"mid": 6, "op": "net.send"})]
    assert service_spans(b.spans, t0, "service:") == [
        ("service:net.bind", "tile1", 9, 9, {"mid": 1, "op": "net.bind"}),
        ("service:net.send", "tile1", 1_013, 2_028,
         {"mid": 2, "op": "net.send"}),
        ("service:net.send", "tile1", 1_020, 2_041,
         {"mid": 3, "op": "net.send"})]


def test_a_network_tile_drained_while_a_send_awaits_its_ack_never_replies():
    """The frame is on the fabric when board A's tile 1 fail-stops: it
    still lands at B, the ACK finds nobody to answer, and the next request
    is NACKed by the drained monitor."""
    engine, (a, b) = two_boards(Engine())
    t0 = engine.now
    log = Rows(engine, t0)
    log.issue("B bind", net_call(b, 2, "net.bind", {"port": 9}))
    log.at(1_000).issue("A to B", send(a, 2, "boardB", 9, "lost reply"))
    log.at(1_300)
    a.mgmt.fail_stop(1)
    log.at(1_500).issue("after the drain", send(a, 2, "boardB", 9, "x"))
    log.at(10_000)
    assert log.table() == {
        "B bind": (0, 18, "'bound'"), "A to B": (1_000, None, None),
        "after the drain": (1_500, 1_520, ("error", "tile1 is fail-stopped"))}
    assert rx(b, 2) == [(9, "lost reply", "boardA")]
    assert service_spans(a.spans, t0, "service:") == [
        ("service:net.send", "tile1", 1_013, None,
         {"mid": 1, "op": "net.send"})]


def test_a_post_goes_out_unanswered_and_a_heartbeat_is_answered_by_its_ack():
    """A beat on ``HEARTBEAT_PORT`` is answered by the network tile's
    transport ACK alone: the sender's event fires, no payload comes back,
    not one NoC packet moves on the board, and no tile may bind that port.
    A ``net.post`` is transmitted like a send and answered by nobody: the
    caller's event is its NoC admission, and the service opens no span."""
    engine, (a, b) = two_boards()
    t0 = engine.now
    log = Rows(engine, t0)
    log.issue("B bind", net_call(b, 2, "net.bind", {"port": 9}))
    log.issue("heartbeat port",
              net_call(b, 3, "net.bind", {"port": HEARTBEAT_PORT}))
    heard = []
    fabric = b.mac.fabric
    host = ReliableMux(
        engine, fabric.transmit, "host",
        lambda peer, payload: heard.append((engine.now - t0, peer, payload)),
        window=HOST_WINDOW, timeout=HOST_TIMEOUT)
    fabric.attach("host", host.deliver_frame)

    def packets():
        return b.network.stats.counter("noc.packets_delivered").value

    log.at(1_000)
    before = packets()
    acked = []
    host.peer("boardB").send(
        {"port": HEARTBEAT_PORT, "data": ("req", 41, None), "src_mac": "host"},
        payload_bytes=16, on_acked=lambda: acked.append(engine.now - t0))
    log.at(5_000)
    # the tile answered ("resp", 41, None), heard at 2 004, until the ACK
    # became the answer: the ACK of the beat lands two cycles ahead of it
    assert (acked, heard) == ([2_002], [])
    assert b.net_service.rx_unbound == 0
    assert packets() == before
    admitted = []
    # net_post's message, with its admission event
    a.tiles[2].shell.notify(
        "svc.net", "net.post",
        payload={"dst_mac": "boardB", "port": 9, "data": "p0", "nbytes": 64},
        payload_bytes=64).add_callback(
            lambda _ev: admitted.append(engine.now - t0))
    log.at(10_000)
    assert log.table() == {
        "B bind": (0, 18, "'bound'"),
        "heartbeat port": (0, 25, ("error", "port 0 taken"))}
    assert admitted == [5_009]
    assert rx(b, 2) == [(9, "p0", "boardA")]
    assert not a.tiles[2].shell._pending and not a.tiles[2].shell.inbox
    assert service_spans(a.spans, t0, "service:") == []


# -- (c) a cluster backend ---------------------------------------------------------
#
# Captured on the backend whose ``main`` loops on ``shell.recv()`` and charges
# each entry with ``yield from self._work(...)`` inside the tile's guarded
# process.


def kv_handler(body):
    """``(cycles, reply, bytes)``: the body names its own cost."""
    if body.get("fail"):
        raise ProtocolError(f"refused {body['x']}")
    return body["cycles"], {"x": body["x"]}, 32


class Backend:
    """A ``ClusterPortedService`` on port 9 of board B's tile 2 and a
    ``host`` mux on the fabric that talks to it; every payload the host
    hears is logged as ``(offset, data)``."""

    def __init__(self, engine=None):
        self.engine, (_a, self.board) = two_boards(engine)
        fabric = self.board.mac.fabric
        self.heard = []
        self.host = ReliableMux(
            self.engine, fabric.transmit, "host",
            lambda peer, payload: self.heard.append(
                (self.engine.now - self.t0, payload["data"])),
            window=HOST_WINDOW, timeout=HOST_TIMEOUT)
        fabric.attach("host", self.host.deliver_frame)
        self.service = ClusterPortedService("kv", 9, kv_handler)
        self.engine.run_until_done(self.board.start_app(2, self.service))
        self.t0 = self.engine.now + 1_000
        self.at(0)
        self.trace = self.board.spans.new_trace()

    def at(self, offset):
        self.engine.run(until=self.t0 + offset)
        return self

    def body(self, x, cycles, **extra):
        return {"x": x, "cycles": cycles, "_trace": (self.trace, 0), **extra}

    def send(self, tag, ident, data):
        self.host.peer("boardB").send(
            {"port": 9, "data": (tag, ident, data), "src_mac": "host"},
            payload_bytes=64)

    def spans(self):
        return [(start, end) for _name, _tile, start, end, _detail
                in service_spans(self.board.spans, self.t0, "backend:kv")]

    def counters(self):
        return (self.service.batches_served, self.service.pings_answered,
                self.service.requests_served)


def test_a_backend_serves_a_batch_in_order_and_a_fail_stop_ends_one():
    """A three-entry batch (the middle one a ping, served at no cost) is
    answered by one ``batchresp`` when its last entry is done.  A tile
    fail-stopped in the middle of a batch sends nothing for it — the entry
    in service keeps its span open, and its completion, long after the
    tile was reloaded, answers nothing — while the reloaded instance
    serves a batch and a single request again."""
    rig = Backend()
    rig.send("batch", 5, [(1, rig.body(1, 100)), (2, {"op": "ping"}),
                          (3, rig.body(3, 40))])
    rig.at(5_000).send("batch", 6, [(4, rig.body(4, 100)),
                                    (5, rig.body(5, 2_000_000)),
                                    (6, rig.body(6, 100))])
    rig.at(5_700)
    assert rig.counters() == (2, 1, 3)
    rig.board.mgmt.fail_stop(2)
    reload = rig.engine.process(rig.board.mgmt.restart(2, rig.service))
    rig.engine.run_until_done(reload.done)
    restarted = rig.engine.now - rig.t0
    rig.send("batch", 7, [(7, rig.body(7, 10))])
    rig.send("req", 8, rig.body(8, 10))
    rig.at(2_100_000)
    assert restarted == BACKEND_RESTARTED
    assert rig.heard == BACKEND_HEARD
    assert rig.spans() == BACKEND_SPANS
    assert rig.counters() == (3, 1, 5)


BACKEND_RESTARTED = 895_908
BACKEND_HEARD = [
    (1_169, ("batchresp", 5, [(1, {"x": 1}, 32),
                              (2, {"pong": True, "service": "kv"}, 16),
                              (3, {"x": 3}, 32)])),
    (896_942, ("batchresp", 7, [(7, {"x": 7}, 32)])),
    (896_950, ("resp", 8, {"x": 8})),
]
BACKEND_SPANS = [(509, 609), (609, 649), (5_509, 5_609), (5_609, None),
                 (896_417, 896_427), (896_427, 896_437)]


@pytest.mark.parametrize("how", ["handler", "injected"])
def test_a_fault_in_a_backend_is_contained_on_its_tile(how):
    """A ``ReproError`` from the handler, or the fault ``inject_fault_after``
    arms, fail-stops the backend's tile through its fault manager (context
    ``main``) in the cycle it happens; nothing is answered and the run goes
    on (the engine here does not swallow process errors)."""
    rig = Backend()
    if how == "injected":
        rig.service.inject_fault_after = 1
    rig.send("batch", 5, [(1, rig.body(1, 100)),
                          (2, rig.body(2, 40, fail=how == "handler"))])
    rig.at(5_000)
    tile = rig.board.tiles[2]
    records = rig.board.fault_manager.faults_on(tile.endpoint)
    assert [(r.time - rig.t0, r.context, r.error, r.action)
            for r in records] == [(609, "main", BACKEND_FAULT[how],
                                   "drained")]
    assert tile.failed and tile.monitor.drained
    assert rig.heard == []
    assert rig.spans() == [(509, 609), (609, None)]
    assert rig.counters() == (1, 0, 1)


BACKEND_FAULT = {"handler": "ProtocolError: refused 2",
                 "injected": "TileFault: kv: injected fault"}


# -- (d) event budgets ---------------------------------------------------------------
#
# ``schedule()`` calls one op costs, from the cycle it is issued on a quiet
# board (an idle 5 000 cycles cost 0) to 5 000 cycles later: the request's
# egress and transit, the service's work, the reply, and for ``net.send``
# the frame, its ACK and the "sent" reply (``net.post``: the frame and its
# ACK only).


def op_cost(rig, act):
    engine, system, prepared = rig
    before = engine.schedules
    act(system, prepared)
    engine.run(until=engine.now + 5_000)
    return engine.schedules - before


def memory_rig():
    engine = CountingEngine()
    system = memory_board(engine)
    seg = system.tiles[2].shell.call("svc.mem", "mem.alloc",
                                     payload={"size": SEG})
    engine.run(until=engine.now + 5_000)
    return engine, system, seg.value.payload["cap"]


def network_rig():
    engine = CountingEngine()
    engine, (a, b) = two_boards(engine)
    net_call(b, 2, "net.bind", {"port": 9})
    engine.run(until=engine.now + 5_000)
    return engine, a, None


MEMORY_OPS = {
    "idle": lambda system, cap: None,
    "mem.alloc": lambda system, cap: mem_call(system, 2, "mem.alloc",
                                              {"size": 64}),
    "mem.write": lambda system, cap: write(system, 2, cap, 0, b"abcd"),
    "mem.read": lambda system, cap: read(system, 2, cap, 0, 8),
    "mem.grant": lambda system, cap: mem_call(
        system, 2, "mem.grant", {"to": "tile3", "rights": Rights.READ}, cap),
    "mem.free": lambda system, cap: mem_call(system, 2, "mem.free",
                                             {"sid": 1}, cap),
}

NETWORK_OPS = {
    "idle": lambda system, _: None,
    "net.bind": lambda system, _: net_call(system, 2, "net.bind",
                                           {"port": 7}),
    "net.send": lambda system, _: send(system, 2, "boardB", 9, "x"),
    "net.post": lambda system, _: post(system, 2, "boardB", 9, "x"),
}


def test_event_budget_of_each_memory_op():
    assert {op: op_cost(memory_rig(), act)
            for op, act in MEMORY_OPS.items()} == MEMORY_OP_SCHEDULES


def test_event_budget_of_each_network_op():
    assert {op: op_cost(network_rig(), act)
            for op, act in NETWORK_OPS.items()} == NETWORK_OP_SCHEDULES


def test_events_built_by_each_memory_op():
    """``Event`` objects one op builds: the call's result (a read or write
    adds its access process's ``done`` and the DRAM bus acquire); the
    service's reply builds none, since nothing waits on its admission."""
    def events(act):
        rig = memory_rig()
        (_calls, built), _frames = count_calls(lambda: op_cost(rig, act))
        return built

    assert {op: events(act) for op, act in MEMORY_OPS.items()} \
        == MEMORY_OP_EVENTS


#: captured as 23 / 26 / 26 / 23 / 23 and 21 / 36 on the process-per-
#: message services; answering in the delivery callback drops the inbox
#: wake, the per-request process and its timer's second hop (alloc, free
#: and grant reply from one heap entry), and a read or write keeps one
#: process, its DRAM access.  Re-pinned once more when the monitor came to
#: reach its network interface by plain calls: 3 fewer per NoC message
#: (the injection's completion event and the delivery channel's get and
#: put were ring hops), so 6 fewer per op, 9 fewer for ``net.send``
#: (19 / 25 / 25 / 19 / 19 and 18 / 33 / 22 before).  One fewer per
#: ``Shell.call`` since the monitor calls back on admission instead of
#: triggering an event, whose callback in the caller was a no-op ring hop
#: unless the message was refused (13 / 19 / 19 / 13 / 13 and 12 / 24 /
#: 16 before; ``net.post`` is no call)
MEMORY_OP_SCHEDULES = {"idle": 0, "mem.alloc": 12, "mem.write": 18,
                       "mem.read": 18, "mem.grant": 12, "mem.free": 12}
#: ``net.post`` is ``net.send`` less the ``"sent"`` reply's trip back over
#: the NoC and the caller's response handling
NETWORK_OP_SCHEDULES = {"idle": 0, "net.bind": 11, "net.send": 23,
                        "net.post": 16}

#: one more per op while the service replied through ``Shell.reply``,
#: whose admission event nobody waited on
MEMORY_OP_EVENTS = {"idle": 0, "mem.alloc": 1, "mem.write": 3,
                    "mem.read": 3, "mem.grant": 1, "mem.free": 1}
