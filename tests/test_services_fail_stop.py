"""The OS services' fail-stop rule, on the callback implementation.

A reply the memory or network tile owes when it fail-stops is never sent,
as when its per-request process was interrupted — not even once the tile
is back, which a callback can only know from ``Shell.incarnation`` (the
first two tests hold on both implementations).  What did change on
purpose: the DRAM access under way at a fail-stop runs to its end.
"""

from repro.sim import Engine

from tests.test_services_path import (
    SEG,
    Rows,
    allocated,
    mem_call,
    memory_board,
    net_call,
    read,
    send,
    service_spans,
    two_boards,
)


def test_a_reply_owed_before_a_fail_stop_is_never_sent_after_a_reload():
    """The alloc is in its 4 allocator cycles when tile 0 fail-stops and
    comes straight back (a reload in zero time, the worst case): the
    undrained monitor would carry the old incarnation's reply, but it is
    never sent."""
    system = memory_board(Engine())
    t0 = system.engine.now
    log = Rows(system.engine, t0)
    log.issue("alloc", mem_call(system, 2, "mem.alloc", {"size": 64}))
    log.at(12)
    tile = system.tiles[0]
    tile.fail_stop()
    tile.monitor.undrain()
    log.at(1_000)
    assert log.table() == {"alloc": (0, None, None)}


def test_a_sent_reply_owed_before_a_fail_stop_is_never_sent_after_a_reload():
    """The frame is on the fabric when board A's network tile fail-stops
    and comes straight back: the ACK lands, the peer got the payload, and
    nobody is told "sent"."""
    engine, (a, b) = two_boards(Engine())
    t0 = engine.now
    log = Rows(engine, t0)
    log.issue("B bind", net_call(b, 2, "net.bind", {"port": 9}))
    log.at(1_000).issue("A to B", send(a, 2, "boardB", 9, "x"))
    log.at(1_300)
    a.tiles[1].fail_stop()
    a.tiles[1].monitor.undrain()
    log.at(10_000)
    assert log.table()["A to B"] == (1_000, None, None)
    assert len(b.tiles[2].shell.inbox) == 1


def test_a_drained_memory_tile_s_dram_access_runs_to_its_end():
    """The access is the DRAM's, not the tile's: a fail-stop leaves it to
    finish and release the channel's bus (interrupting it mid-burst used
    to leave the bus held for good)."""
    system = memory_board(Engine())
    t0, log, cap = allocated(system, SEG)
    log.issue("read", read(system, 2, cap, 0, 4096))
    log.at(1_030)
    system.mgmt.fail_stop(0)
    log.at(3_000)
    assert log.table()["read"] == (1_000, None, None)
    assert service_spans(system.spans, t0, "dram.") == [
        ("dram.access", "dram", 1_011, 1_153, {"nbytes": 4096, "write": False})]
    assert system.dram.channels[0].bus.available == 1
