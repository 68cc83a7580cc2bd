"""The per-message OS path, pinned cycle by cycle: monitor egress/ingress,
the reliable transport, both MACs.

The timing goldens (sections a-c) were captured on the generator
implementation that preceded ISSUE 22 and hold unchanged on the callback
state machines that replaced it: a message is submitted, stamped, admitted
and delivered — a frame is put on the wire, ACKed and retransmitted — on
the same cycles.  They are the contract of that rewrite; a literal there
changes only with a deliberate change of simulated behaviour.  Section d
pins what the rewrite *did* change, the engine-event budget of the path,
and that ``perf.trace`` still books every event of it to its layer.
"""

from functools import partial

import pytest

from repro.accel import Accelerator, EchoAccel
from repro.cap import CapabilityStore, Rights
from repro.kernel import (
    ApiarySystem,
    MemConfig,
    Message,
    MessageKind,
    Monitor,
    NetConfig,
    NocConfig,
    SystemConfig,
)
from repro.kernel import monitor as monitor_module
from repro.kernel.services import HundredGigAdapter, NetworkService
from repro.mem import SegmentTable
from repro.net import (
    EthernetFabric,
    EthernetFrame,
    HundredGigMac,
    ReliableMux,
    TenGigMac,
)
from repro.noc import Mesh2D, Network
from repro.sim import Engine

from tests.conftest import CountingEngine, TaggingEngine, count_calls

# -- (a) one monitor pair on a 2x2 board ---------------------------------------


class MonitorRig:
    """Monitors ``a`` (node 0) and ``b`` (node 3) of a 2x2 mesh; the name
    table also knows ``c`` (node 1, nobody holds SEND for it unless ``c`` is
    one of the ``tiles`` that get a monitor: then ``c`` may send to ``b``).
    Every message
    is logged as ``mid -> (submit cycle, sent_at, admission cycle, delivery
    cycle at the peer's shell hook, outcome)``; a NACK that comes back sets
    the outcome to ``("nacked", cycle it reached the sender)``."""

    def __init__(self, enforce=True, tiles="ab", **a_kwargs):
        self.eng = eng = Engine()
        net = Network(eng, Mesh2D(2, 2))
        self.caps = caps = CapabilityStore()
        segments = SegmentTable()
        names = {"a": 0, "b": 3, "c": 1}
        self.mon = {
            name: Monitor(eng, name, net.interface(names[name]), caps,
                          segments, names, enforce=enforce,
                          **(a_kwargs if name == "a" else {}))
            for name in tiles}
        caps.mint("a", Rights.SEND, endpoint="b")
        caps.mint("b", Rights.SEND, endpoint="a")
        if "c" in tiles:
            caps.mint("c", Rights.SEND, endpoint="b")
        self.msgs = {}
        self.rows = {}
        for monitor in self.mon.values():
            monitor.deliver = self._delivered

    def at(self, cycle):
        """Run every event up to and including ``cycle``; the caller then
        acts from outside the engine, after all of that cycle's callbacks."""
        self.eng.run(until=cycle)
        assert self.eng.now == cycle
        return self

    def send(self, src, dst, mid, nbytes=0, kind=MessageKind.REQUEST):
        msg = Message(src=src, dst=dst, op=f"m{mid}", mid=mid, kind=kind,
                      payload_bytes=nbytes)
        self.msgs[mid] = msg
        self.rows[mid] = [self.eng.now, None, None, None, None]
        self.mon[src].submit(msg, partial(self._admitted, mid))

    def _admitted(self, mid, error):
        row = self.rows[mid]
        row[2] = self.eng.now
        if error is not None:
            row[4] = type(error).__name__

    def _delivered(self, msg):
        row = self.rows[msg.mid]
        if msg.kind == MessageKind.ERROR:
            row[4] = ("nacked", self.eng.now)
        else:
            row[3] = self.eng.now
            row[4] = "delivered"

    def table(self):
        for mid, msg in self.msgs.items():
            self.rows[mid][1] = msg.sent_at
        return {mid: tuple(row) for mid, row in sorted(self.rows.items())}

    def counters(self):
        return {name: (m.messages_sent, m.messages_received, m.denials,
                       m.nacks_sent, m.egress_backlog)
                for name, m in self.mon.items()}


def twelve_messages(enforce):
    """Both directions at once, bursts and gaps, 3 to 66 flits; submitted
    from engine processes, the way a shell submits."""
    rig = MonitorRig(enforce=enforce)

    def side(src, dst, start, script):
        if start:
            yield start
        for mid, gap, nbytes in script:
            if gap:
                yield gap
            rig.send(src, dst, mid, nbytes)

    rig.eng.process(side("a", "b", 0, [
        (1, 0, 0), (2, 0, 64), (3, 0, 200), (4, 5, 0), (5, 0, 16),
        (6, 25, 1000), (7, 1, 0), (8, 1, 0)]))
    rig.eng.process(side("b", "a", 3, [
        (9, 0, 32), (10, 7, 0), (11, 0, 0), (12, 40, 500)]))
    rig.at(2_000)
    return rig


TWELVE_ENFORCED = {
    1: (0, 2, 5, 11, "delivered"),
    2: (0, 7, 14, 21, "delivered"),
    3: (0, 16, 32, 39, "delivered"),
    4: (5, 34, 37, 43, "delivered"),
    5: (5, 39, 43, 49, "delivered"),
    6: (30, 45, 111, 118, "delivered"),
    7: (31, 113, 116, 122, "delivered"),
    8: (32, 118, 121, 127, "delivered"),
    9: (3, 5, 10, 17, "delivered"),
    10: (10, 12, 15, 22, "delivered"),
    11: (10, 17, 20, 27, "delivered"),
    12: (50, 52, 87, 94, "delivered")
}
TWELVE_UNENFORCED = {
    1: (0, 0, 3, 8, "delivered"),
    2: (0, 3, 10, 16, "delivered"),
    3: (0, 10, 26, 32, "delivered"),
    4: (5, 26, 29, 35, "delivered"),
    5: (5, 29, 33, 39, "delivered"),
    6: (30, 33, 99, 105, "delivered"),
    7: (31, 99, 102, 108, "delivered"),
    8: (32, 102, 105, 111, "delivered"),
    9: (3, 3, 8, 14, "delivered"),
    10: (10, 10, 13, 19, "delivered"),
    11: (10, 13, 16, 22, "delivered"),
    12: (50, 50, 85, 91, "delivered")
}


@pytest.mark.parametrize("enforce", [True, False])
def test_twelve_messages_cycle_by_cycle(enforce):
    rig = twelve_messages(enforce)
    assert rig.table() == (TWELVE_ENFORCED if enforce else TWELVE_UNENFORCED)
    assert rig.counters() == {"a": (8, 4, 0, 0, 0), "b": (4, 8, 0, 0, 0)}


def rate_limited():
    """0.05 flits/cycle behind a 12-flit bucket: three 4-flit messages pass
    on the burst, the fourth waits for the refill, the fifth (66 flits,
    more than the bucket holds) for a full bucket."""
    rig = MonitorRig()
    rig.mon["a"].set_rate_limit(0.05, burst=12)
    rig.at(10)
    for mid in (1, 2, 3, 4):
        rig.send("a", "b", mid, 16)
    rig.send("a", "b", 5, 1000)
    rig.at(100)
    rig.send("a", "b", 6, 16)
    rig.at(5_000)
    return rig


RATE_LIMITED = {
    1: (10, 12, 16, 22, "delivered"),
    2: (10, 18, 22, 28, "delivered"),
    3: (10, 24, 28, 34, "delivered"),
    4: (10, 92, 96, 102, "delivered"),
    5: (10, 332, 398, 404, "delivered"),
    6: (100, 1492, 1496, 1502, "delivered")
}
RATE_LIMITED_TELEMETRY = {
    "a": {"tile": "a",
          "messages_sent": 6.0,
          "messages_received": 0.0,
          "denials": 0.0,
          "nacks_sent": 0.0,
          "drained": 0.0,
          "tx_flits_per_cycle": 0.0086,
          "rx_msgs_per_cycle": 0.0,
          "rate_limited": 1.0},
    "b": {"tile": "b",
          "messages_sent": 0.0,
          "messages_received": 6.0,
          "denials": 0.0,
          "nacks_sent": 0.0,
          "drained": 0.0,
          "tx_flits_per_cycle": 0.0,
          "rx_msgs_per_cycle": 0.0006,
          "rate_limited": 0.0}
}


def test_rate_limit_makes_the_fourth_message_wait():
    rig = rate_limited()
    assert rig.table() == RATE_LIMITED
    assert rig.mon["a"].bucket.admitted == 6
    rig.at(9_000)  # still inside the meters' 10k-cycle window
    assert {name: m.telemetry() for name, m in rig.mon.items()} \
        == RATE_LIMITED_TELEMETRY


def denied_mid_burst():
    """Five messages queued on one cycle; the third names an endpoint the
    tile holds no SEND for, the fourth one that does not exist."""
    rig = MonitorRig()
    rig.at(20)
    rig.send("a", "b", 1, 64)
    rig.send("a", "b", 2)
    rig.send("a", "c", 3)
    rig.send("a", "ghost", 4)
    rig.send("a", "b", 5, 64)
    rig.at(1_000)
    return rig


DENIED_MID_BURST = {
    1: (20, 22, 29, 35, "delivered"),
    2: (20, 31, 34, 40, "delivered"),
    3: (20, -1, 34, None, "AccessDenied"),
    4: (20, -1, 34, None, "ServiceUnavailable"),
    5: (20, 36, 43, 49, "delivered")
}


def test_denial_in_the_middle_of_a_queued_burst():
    rig = denied_mid_burst()
    assert rig.table() == DENIED_MID_BURST
    assert rig.counters() == {"a": (3, 0, 2, 0, 0), "b": (0, 3, 0, 0, 0)}


def drained_mid_burst():
    """Four messages on one cycle; the tile is drained one cycle later, with
    the first in its interposition delay and three behind it."""
    rig = MonitorRig()
    rig.at(10)
    for mid in (1, 2, 3, 4):
        rig.send("a", "b", mid, 64)
    rig.at(11)
    backlog = rig.mon["a"].egress_backlog
    rig.mon["a"].drain()
    rig.send("a", "b", 5)  # after the drain: refused at the door
    rig.at(1_000)
    return rig, backlog


DRAINED_MID_BURST = {
    1: (10, 12, 19, 25, "delivered"),
    2: (10, -1, 11, None, "TileFault"),
    3: (10, -1, 11, None, "TileFault"),
    4: (10, -1, 11, None, "TileFault"),
    5: (11, -1, 11, None, "TileFault")
}


def test_drain_flushes_the_queue_but_not_the_message_in_the_delay():
    rig, backlog = drained_mid_burst()
    assert backlog == 3
    assert rig.table() == DRAINED_MID_BURST
    assert rig.counters() == {"a": (1, 0, 0, 0, 0), "b": (0, 1, 0, 0, 0)}


#: a 3-flit request submitted at cycle 10 is reassembled at b's interface on
#: this cycle and reaches b's shell one (ingress) cycle later
ARRIVAL = 20


def drain_around_an_arrival(how):
    rig = MonitorRig()
    if how == "scheduled":
        # fires from the heap on the delivery cycle, ahead of everything
        # that cycle's traffic scheduled
        rig.eng.schedule(ARRIVAL + 1, lambda _arg: rig.mon["b"].drain())
    rig.at(10)
    rig.send("a", "b", 1)
    if how == "during_delay":
        rig.at(ARRIVAL)
        assert rig.mon["b"].ni.packets_received == 1
        rig.mon["b"].drain()
    elif how == "after_delivery":
        rig.at(ARRIVAL + 1)
        rig.mon["b"].drain()
    rig.at(1_000)
    return rig


DRAIN_AROUND_ARRIVAL = {
    "during_delay": {1: (10, 12, 15, None, ("nacked", 30))},
    "scheduled": {1: (10, 12, 15, None, ("nacked", 30))},
    "after_delivery": {1: (10, 12, 15, 21, "delivered")}
}


@pytest.mark.parametrize("how", ["during_delay", "scheduled",
                                 "after_delivery"])
def test_packet_one_cycle_ahead_of_a_drain_is_nacked(how):
    """The drain is checked after the ingress delay, not at arrival."""
    rig = drain_around_an_arrival(how)
    assert rig.table() == DRAIN_AROUND_ARRIVAL[how]
    nacked = how != "after_delivery"
    assert rig.counters() == {
        "a": (1, 1 if nacked else 0, 0, 0, 0),
        "b": (0, 0 if nacked else 1, 0, 1 if nacked else 0, 0)}


# The next two cases were captured on the monitor that reached its network
# interface through ``ni.send(...)`` / ``ni.recv()`` events.


def two_sources_one_sink(first, second_at):
    """``first`` submits at cycle 10, the other of ``a`` / ``c`` at
    ``second_at``: the two requests reach ``b``'s interface on consecutive
    cycles, the later one on the cycle the earlier one's ingress delay
    ends."""
    rig = MonitorRig(tiles="abc")
    other = "c" if first == "a" else "a"
    rig.at(10)
    rig.send(first, "b", 1)
    rig.at(second_at)
    rig.send(other, "b", 2)
    rig.at(1_000)
    return rig


#: keyed by ``(first, second_at, ingress interposition cycles)``; the
#: 3-cycle rows stretch the interposition so that the second message waits
#: for the first one's delivery before its own delay starts
TWO_SOURCES = {
    ("a", 11, 1): {1: (10, 12, 15, 23, "delivered"),
                   2: (11, 13, 16, 22, "delivered")},
    ("a", 12, 1): {1: (10, 12, 15, 23, "delivered"),
                   2: (12, 14, 17, 24, "delivered")},
    ("a", 11, 3): {1: (10, 12, 15, 27, "delivered"),
                   2: (11, 13, 16, 24, "delivered")},
    ("a", 12, 3): {1: (10, 12, 15, 25, "delivered"),
                   2: (12, 14, 17, 28, "delivered")},
}


@pytest.mark.parametrize("first, second_at, ingress", sorted(TWO_SOURCES))
def test_two_sources_reach_one_monitor_within_its_ingress_delay(
        monkeypatch, first, second_at, ingress):
    """Ingress serializes: the message that lands while another is in its
    interposition starts its own when the other is delivered."""
    monkeypatch.setattr(monitor_module, "MONITOR_INGRESS_CYCLES", ingress)
    rig = two_sources_one_sink(first, second_at)
    assert rig.table() == TWO_SOURCES[first, second_at, ingress]
    assert rig.mon["b"].messages_received == 2


def nack_beside_an_egress(submit_at):
    """``b`` submits a 64-byte message to ``a`` at ``submit_at`` and is
    drained at cycle 20, with that message in its interposition delay and
    ``a``'s request in its ingress delay: the NACK and the message share
    ``b``'s network interface, each injected after the other's turn."""
    rig = MonitorRig()
    rig.at(10)
    rig.send("a", "b", 1)
    rig.at(submit_at)
    rig.send("b", "a", 2, 64)
    rig.at(20)
    rig.mon["b"].drain()
    rig.at(1_000)
    return rig


NACK_BESIDE_AN_EGRESS = {
    19: {1: (10, 12, 15, None, ("nacked", 37)),
         2: (19, 21, 28, 34, "delivered")},
    20: {1: (10, 12, 15, None, ("nacked", 30)),
         2: (20, 22, 31, 37, "delivered")},
}


@pytest.mark.parametrize("submit_at", sorted(NACK_BESIDE_AN_EGRESS))
def test_a_drained_tiles_nack_shares_its_interface_with_an_egress(submit_at):
    """At 19 the message's delay ends in the cycle the request's does, and
    goes first; at 20 the NACK is injecting when the message's delay ends."""
    rig = nack_beside_an_egress(submit_at)
    assert rig.table() == NACK_BESIDE_AN_EGRESS[submit_at]
    assert rig.counters() == {"a": (1, 2, 0, 0, 0), "b": (1, 0, 0, 1, 0)}


# -- the NoC under the monitor: each message's packet, cycle by cycle ------
#
# Rows are ``mid -> (submit, sent_at, injected_at, delivered_at, admission,
# outcome)``: the packet's start and its tail's reassembly at the far
# interface sit between the monitor's stamp and its admission callback.
# Each case puts a second start, a stall or a drain on a cycle that
# decides how the first packet crosses an otherwise idle mesh.


class PacketRig(MonitorRig):
    """A :class:`MonitorRig` (``a``, ``b`` and ``c``) that also logs every
    delivered packet's injection and reassembly cycles, keyed by its
    message's ``(mid, kind)``; a bare packet from node 2 is ``("ni2",
    n)``."""

    def __init__(self, **kwargs):
        super().__init__(tiles="abc", **kwargs)
        self.net = net = self.mon["a"].ni.network
        self.packets = {}
        record = net.record_delivery

        def logged(pkt):
            msg = pkt.payload
            key = ((msg.mid, msg.kind.value) if isinstance(msg, Message)
                   else ("ni2", msg))
            self.packets[key] = (pkt.injected_at, pkt.delivered_at)
            record(pkt)

        net.record_delivery = logged

    def bare(self, at, n, nbytes=16):
        """A bare packet node 2 -> node 3, started from the heap at ``at``
        (scheduled now, so ahead of what the run schedules for ``at``)."""
        self.eng.schedule(at - self.eng.now, lambda _arg: self.net.interface(
            2).inject(3, n, nbytes))

    def noc_table(self):
        table = {}
        for mid, row in self.table().items():
            key = (mid, self.msgs[mid].kind.value)
            injected, delivered = self.packets.get(key, (None, None))
            table[mid] = (row[0], row[1], injected, delivered, row[2],
                          row[4] if row[3] is None else ("delivered", row[3]))
        table.update({key: value for key, value in self.packets.items()
                      if key[0] == "ni2" or key[1] == "error"})
        return table


def lane_commit_beside_a_start(other, offset):
    """``a`` -> ``b`` (3 flits) crosses alone and is reassembled at 20;
    the other packet starts at ``20 + offset``: ``c`` -> ``b`` (another
    source, the same sink), ``b`` -> ``a`` (from the interface that
    reassembles the first) or a bare packet node 2 -> node 3 started from
    the heap ahead of everything the run schedules for that cycle."""
    rig = PacketRig()
    if other == "ni2":
        rig.bare(20 + offset, 1)
    rig.at(10)
    rig.send("a", "b", 1)
    rig.at(18 + offset)
    if other != "ni2":
        rig.send(other, "a" if other == "b" else "b", 2)
    rig.at(1_000)
    return rig


LANE_COMMIT_BESIDE_A_START = {
    ('c', -1): {
        1: (10, 12, 12, 20, 15, ('delivered', 21)),
        2: (17, 19, 19, 25, 22, ('delivered', 26)),
    },
    ('c', 0): {
        1: (10, 12, 12, 20, 15, ('delivered', 21)),
        2: (18, 20, 20, 26, 23, ('delivered', 27)),
    },
    ('c', 1): {
        1: (10, 12, 12, 20, 15, ('delivered', 21)),
        2: (19, 21, 21, 27, 24, ('delivered', 28)),
    },
    ('b', -1): {
        1: (10, 12, 12, 20, 15, ('delivered', 21)),
        2: (17, 19, 19, 27, 22, ('delivered', 28)),
    },
    ('b', 0): {
        1: (10, 12, 12, 20, 15, ('delivered', 21)),
        2: (18, 20, 20, 28, 23, ('delivered', 29)),
    },
    ('b', 1): {
        1: (10, 12, 12, 20, 15, ('delivered', 21)),
        2: (19, 21, 21, 29, 24, ('delivered', 30)),
    },
    ('ni2', -1): {
        1: (10, 12, 12, 20, 15, ('delivered', 21)),
        ('ni2', 1): (19, 24),
    },
    ('ni2', 0): {
        1: (10, 12, 12, 20, 15, ('delivered', 21)),
        ('ni2', 1): (20, 25),
    },
    ('ni2', 1): {
        1: (10, 12, 12, 20, 15, ('delivered', 21)),
        ('ni2', 1): (21, 26),
    },
}


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("other", ["c", "b", "ni2"])
def test_a_lane_commit_in_the_cycle_another_packet_starts(other, offset):
    rig = lane_commit_beside_a_start(other, offset)
    assert rig.noc_table() == LANE_COMMIT_BESIDE_A_START[other, offset]


def start_beside_a_flit_path_delivery(at):
    """``a`` sends 66 flits to ``b`` at 10 and ``c`` 3 flits at 11: the
    two meet at ``b``'s router and both cross as flits.  ``b`` then
    submits to ``a`` at ``at``, so its packet starts from the heap phase
    two cycles later — on, before or after the cycles the two tails are
    reassembled."""
    rig = PacketRig()
    rig.at(10)
    rig.send("a", "b", 1, 1000)
    rig.at(11)
    rig.send("c", "b", 2)
    rig.at(at)
    rig.send("b", "a", 3, 64)
    rig.at(1_000)
    return rig


START_BESIDE_A_FLIT_PATH_DELIVERY = {
    80: {
        1: (10, 12, 12, 85, 78, ('delivered', 86)),
        2: (11, 13, 13, 21, 16, ('delivered', 22)),
        3: (80, 82, 82, 95, 89, ('delivered', 96)),
    },
    81: {
        1: (10, 12, 12, 85, 78, ('delivered', 86)),
        2: (11, 13, 13, 21, 16, ('delivered', 22)),
        3: (81, 83, 83, 96, 90, ('delivered', 97)),
    },
    82: {
        1: (10, 12, 12, 85, 78, ('delivered', 86)),
        2: (11, 13, 13, 21, 16, ('delivered', 22)),
        3: (82, 84, 84, 96, 91, ('delivered', 97)),
    },
    83: {
        1: (10, 12, 12, 85, 78, ('delivered', 86)),
        2: (11, 13, 13, 21, 16, ('delivered', 22)),
        3: (83, 85, 85, 97, 92, ('delivered', 98)),
    },
    84: {
        1: (10, 12, 12, 85, 78, ('delivered', 86)),
        2: (11, 13, 13, 21, 16, ('delivered', 22)),
        3: (84, 86, 86, 98, 93, ('delivered', 99)),
    },
    85: {
        1: (10, 12, 12, 85, 78, ('delivered', 86)),
        2: (11, 13, 13, 21, 16, ('delivered', 22)),
        3: (85, 87, 87, 99, 94, ('delivered', 100)),
    },
    86: {
        1: (10, 12, 12, 85, 78, ('delivered', 86)),
        2: (11, 13, 13, 21, 16, ('delivered', 22)),
        3: (86, 88, 88, 100, 95, ('delivered', 101)),
    },
    87: {
        1: (10, 12, 12, 85, 78, ('delivered', 86)),
        2: (11, 13, 13, 21, 16, ('delivered', 22)),
        3: (87, 89, 89, 101, 96, ('delivered', 102)),
    },
}


@pytest.mark.parametrize("at", sorted(START_BESIDE_A_FLIT_PATH_DELIVERY))
def test_a_heap_phase_start_beside_a_flit_path_delivery(at):
    rig = start_beside_a_flit_path_delivery(at)
    assert rig.noc_table() == START_BESIDE_A_FLIT_PATH_DELIVERY[at]


def stalled_idle_path(how, at):
    """Router 1 — on ``a`` -> ``b``'s route (0 -> 1 -> 3) — stalls for 5
    cycles at ``at``, from a heap callback scheduled at 0 (ahead of the
    cycle's traffic) or from outside the run after cycle ``at``'s events
    (``at - 1`` then: the stall starts on the cycle the caller is in)."""
    rig = PacketRig()
    router = rig.net.router(1)
    if how == "heap":
        rig.eng.schedule(at, lambda _arg: router.stall(5))
    rig.at(10)
    rig.send("a", "b", 1, 64)
    if how == "outside":
        rig.at(at)
        router.stall(5)
    rig.at(1_000)
    return rig


STALLED_IDLE_PATH = {
    ('heap', 11): {
        1: (10, 12, 12, 26, 19, ('delivered', 27)),
    },
    ('heap', 12): {
        1: (10, 12, 12, 27, 19, ('delivered', 28)),
    },
    ('heap', 13): {
        1: (10, 12, 12, 28, 19, ('delivered', 29)),
    },
    ('heap', 16): {
        1: (10, 12, 12, 29, 19, ('delivered', 30)),
    },
    ('heap', 19): {
        1: (10, 12, 12, 29, 19, ('delivered', 30)),
    },
    ('outside', 11): {
        1: (10, 12, 12, 26, 19, ('delivered', 27)),
    },
    ('outside', 12): {
        1: (10, 12, 12, 27, 19, ('delivered', 28)),
    },
    ('outside', 13): {
        1: (10, 12, 12, 28, 19, ('delivered', 29)),
    },
    ('outside', 16): {
        1: (10, 12, 12, 28, 19, ('delivered', 29)),
    },
    ('outside', 19): {
        1: (10, 12, 12, 28, 19, ('delivered', 29)),
    },
}


@pytest.mark.parametrize("at", [11, 12, 13, 16, 19])
@pytest.mark.parametrize("how", ["heap", "outside"])
def test_a_stalled_router_on_an_idle_path(how, at):
    rig = stalled_idle_path(how, at)
    assert rig.noc_table() == STALLED_IDLE_PATH[how, at]


def drain_in_the_ingress_delay(how):
    """``b`` is drained while ``a``'s request waits out its ingress delay
    (or just after it is handed over); the NACK crosses back."""
    rig = PacketRig()
    if how == "heap":
        rig.eng.schedule(ARRIVAL + 1, lambda _arg: rig.mon["b"].drain())
    rig.at(10)
    rig.send("a", "b", 1)
    if how == "outside":
        rig.at(ARRIVAL)
        rig.mon["b"].drain()
    elif how == "after":
        rig.at(ARRIVAL + 1)
        rig.mon["b"].drain()
    rig.at(1_000)
    return rig


DRAIN_IN_THE_INGRESS_DELAY = {
    'heap': {
        1: (10, 12, 12, 20, 15, ('nacked', 30)),
        (1, 'error'): (21, 29),
    },
    'outside': {
        1: (10, 12, 12, 20, 15, ('nacked', 30)),
        (1, 'error'): (21, 29),
    },
    'after': {
        1: (10, 12, 12, 20, 15, ('delivered', 21)),
    },
}


@pytest.mark.parametrize("how", ["heap", "outside", "after"])
def test_a_drain_during_the_ingress_delay(how):
    rig = drain_in_the_ingress_delay(how)
    assert rig.noc_table() == DRAIN_IN_THE_INGRESS_DELAY[how]


class TwoCalls(Accelerator):
    def main(self, shell):
        yield 1_000
        yield shell.call("app.echo", "ping", payload="x", payload_bytes=64)
        yield shell.call("app.echo", "ping", payload="y", payload_bytes=300)


def traced_echo():
    """Two traced ``Shell.call``s to an echo accelerator on another tile."""
    system = ApiarySystem(
        SystemConfig(noc=NocConfig(width=2, height=2),
                     mem=MemConfig(enabled=False)))
    system.boot()
    spans = system.enable_tracing()
    system.run_until(system.start_app(3, EchoAccel("echo", cost=0),
                                      endpoint="app.echo"))
    started = system.start_app(0, TwoCalls("caller"))
    system.mgmt.grant_send("tile0", "app.echo")
    system.run_until(started)
    system.run(until=system.engine.now + 5_000)
    return [row[:8] for row in spans.dump()]


TRACED_ECHO_SPANS = [
    (1, 1, 0, 'mgmt.load:app.echo', 'mgmt', 'mgmt', 5000, 89480),
    (0, 0, 0, 'mgmt.register', 'event', 'mgmt', 5000, 5000),
    (0, 0, 0, 'monitor.undrain', 'event', 'tile3', 89480, 89480),
    (2, 2, 0, 'mgmt.load:tile0', 'mgmt', 'mgmt', 89480, 656520),
    (0, 0, 0, 'mgmt.grant_send', 'event', 'mgmt', 89480, 89480),
    (0, 0, 0, 'monitor.undrain', 'event', 'tile0', 656520, 656520),
    (3, 3, 0, 'request:ping', 'request', 'tile0', 657520, 657550),
    (3, 4, 3, 'monitor.egress', 'monitor', 'tile0', 657520, 657529),
    (3, 5, 3, 'noc.transit', 'noc', 'ni0', 657522, 657534),
    (3, 6, 3, 'monitor.ingress', 'monitor', 'tile3', 657534, 657535),
    (3, 7, 3, 'monitor.egress', 'monitor', 'tile3', 657535, 657544),
    (3, 8, 3, 'noc.transit', 'noc', 'ni3', 657537, 657549),
    (3, 9, 3, 'monitor.ingress', 'monitor', 'tile0', 657549, 657550),
    (4, 10, 0, 'request:ping', 'request', 'tile0', 657550, 657610),
    (4, 11, 10, 'monitor.egress', 'monitor', 'tile0', 657550, 657574),
    (4, 12, 10, 'noc.transit', 'noc', 'ni0', 657552, 657579),
    (4, 13, 10, 'monitor.ingress', 'monitor', 'tile3', 657579, 657580),
    (4, 14, 10, 'monitor.egress', 'monitor', 'tile3', 657580, 657604),
    (4, 15, 10, 'noc.transit', 'noc', 'ni3', 657582, 657609),
    (4, 16, 10, 'monitor.ingress', 'monitor', 'tile0', 657609, 657610),
]


def test_a_traced_echo_s_spans_keep_their_ids_and_order():
    assert traced_echo() == TRACED_ECHO_SPANS


# -- (b) the reliable transport over a fabric --------------------------------------


class TransportRig:
    """Muxes ``A`` and ``B`` on a 50-cycle fabric.  Every frame either side
    puts on the wire is logged as ``(cycle, sender, kind, seq)`` — before
    ``drop((sender, kind, seq), nth time it is sent)`` may eat it."""

    def __init__(self, window, timeout=2_000, drop=lambda key, nth: False):
        self.eng = eng = Engine()
        self.fabric = EthernetFabric(eng, latency_cycles=50)
        self.wire = []
        self.got = []
        self.acks = {}
        self.drop = drop

        def received(_peer, payload):
            self.got.append((eng.now, payload))

        self.a = self._attach("A", lambda peer, payload: None, window, timeout)
        self.b = self._attach("B", received, window, timeout)

    def _attach(self, mac, on_payload, window, timeout):
        def send_frame(frame):
            key = (mac, frame.payload.kind, frame.payload.seq)
            nth = sum(1 for entry in self.wire if entry[1:] == key)
            self.wire.append((self.eng.now, *key))
            if not self.drop(key, nth):
                self.fabric.transmit(frame)

        mux = ReliableMux(self.eng, send_frame, mac, on_payload,
                          window=window, timeout=timeout)
        self.fabric.attach(mac, mux.deliver_frame)
        return mux

    def send(self, payload, nbytes=0):
        self.a.peer("B").send(
            payload, payload_bytes=nbytes,
            on_acked=lambda: self.acks.__setitem__(payload, self.eng.now))

    def run(self, until):
        self.eng.run(until=until)
        return {"acks": self.acks, "got": self.got, "wire": self.wire,
                "retransmissions": self.a.peer("B").retransmissions,
                "duplicates": self.b.peer("A").duplicates_dropped}


def first(sender, kind, seq):
    """Drop predicate: the first transmission of that frame is lost."""
    return lambda key, nth: key == (sender, kind, seq) and nth == 0


def window_of_two():
    rig = TransportRig(window=2)
    for payload in range(5):
        rig.send(payload, nbytes=100)
    return rig.run(10_000)


def three_segments():
    rig = TransportRig(window=4)
    rig.send("big", nbytes=2 * 1502 + 100)
    rig.send("small", nbytes=10)
    return rig.run(10_000)


def lost_data_frame():
    """seq 0 is lost: 1 and 2 arrive out of order, the cumulative ACKs make
    no progress, the whole window goes again at exactly ``timeout``."""
    rig = TransportRig(window=4, drop=first("A", "data", 0))
    for payload in range(3):
        rig.send(payload)
    return rig.run(10_000)


def lost_ack():
    """The frame goes again at ``timeout``; B drops the duplicate and
    repeats the ACK."""
    rig = TransportRig(window=4, drop=first("B", "ack", 1))
    rig.send(0)
    rig.eng.run(until=3_000)
    rig.send(1)
    return rig.run(10_000)


def lost_ack_covered_by_the_next():
    rig = TransportRig(window=4, drop=first("B", "ack", 1))
    rig.send(0)
    rig.eng.run(until=300)
    rig.send(1)  # behind an unACKed frame: the timer is not re-armed
    return rig.run(10_000)


def ack_progress_rearms():
    """seq 1 is lost; the ACK of seq 0 lands at cycle 100 and re-arms the
    timer there, so the retransmission comes at 100 + ``timeout``."""
    rig = TransportRig(window=4, drop=first("A", "data", 1))
    for payload in range(3):
        rig.send(payload)
    return rig.run(10_000)


TRANSPORT = {
    "window_of_two": {"acks": {0: 100, 1: 100, 2: 200, 3: 200, 4: 300},
                      "got": [(50, 0), (50, 1), (150, 2), (150, 3), (250, 4)],
                      "wire": [(0, "A", "data", 0),
                               (0, "A", "data", 1),
                               (50, "B", "ack", 1),
                               (50, "B", "ack", 2),
                               (100, "A", "data", 2),
                               (100, "A", "data", 3),
                               (150, "B", "ack", 3),
                               (150, "B", "ack", 4),
                               (200, "A", "data", 4),
                               (250, "B", "ack", 5)],
                      "retransmissions": 0,
                      "duplicates": 0},
    "three_segments": {"acks": {"big": 100, "small": 100},
                       "got": [(50, "big"), (50, "small")],
                       "wire": [(0, "A", "data", 0),
                                (0, "A", "data", 1),
                                (0, "A", "data", 2),
                                (0, "A", "data", 3),
                                (50, "B", "ack", 1),
                                (50, "B", "ack", 2),
                                (50, "B", "ack", 3),
                                (50, "B", "ack", 4)],
                       "retransmissions": 0,
                       "duplicates": 0},
    "lost_data_frame": {"acks": {0: 2100, 1: 2100, 2: 2100},
                        "got": [(2050, 0), (2050, 1), (2050, 2)],
                        "wire": [(0, "A", "data", 0),
                                 (0, "A", "data", 1),
                                 (0, "A", "data", 2),
                                 (50, "B", "ack", 0),
                                 (50, "B", "ack", 0),
                                 (2000, "A", "data", 0),
                                 (2000, "A", "data", 1),
                                 (2000, "A", "data", 2),
                                 (2050, "B", "ack", 1),
                                 (2050, "B", "ack", 2),
                                 (2050, "B", "ack", 3)],
                        "retransmissions": 3,
                        "duplicates": 0},
    "lost_ack": {"acks": {0: 2100, 1: 3100},
                 "got": [(50, 0), (3050, 1)],
                 "wire": [(0, "A", "data", 0),
                          (50, "B", "ack", 1),
                          (2000, "A", "data", 0),
                          (2050, "B", "ack", 1),
                          (3000, "A", "data", 1),
                          (3050, "B", "ack", 2)],
                 "retransmissions": 1,
                 "duplicates": 1},
    "lost_ack_covered_by_the_next": {"acks": {0: 400, 1: 400},
                                     "got": [(50, 0), (350, 1)],
                                     "wire": [(0, "A", "data", 0),
                                              (50, "B", "ack", 1),
                                              (300, "A", "data", 1),
                                              (350, "B", "ack", 2)],
                                     "retransmissions": 0,
                                     "duplicates": 0},
    "ack_progress_rearms": {"acks": {0: 100, 1: 2200, 2: 2200},
                            "got": [(50, 0), (2150, 1), (2150, 2)],
                            "wire": [(0, "A", "data", 0),
                                     (0, "A", "data", 1),
                                     (0, "A", "data", 2),
                                     (50, "B", "ack", 1),
                                     (50, "B", "ack", 1),
                                     (2100, "A", "data", 1),
                                     (2100, "A", "data", 2),
                                     (2150, "B", "ack", 2),
                                     (2150, "B", "ack", 3)],
                            "retransmissions": 2,
                            "duplicates": 0},
}


@pytest.mark.parametrize("scenario", [
    window_of_two, three_segments, lost_data_frame, lost_ack,
    lost_ack_covered_by_the_next, ack_progress_rearms],
    ids=lambda fn: fn.__name__)
def test_transport_cycle_by_cycle(scenario):
    assert scenario() == TRANSPORT[scenario.__name__]


# -- (c) both MACs ---------------------------------------------------------------


class MacRig:
    """One brought-up MAC ``m0`` and a listener ``m1`` on a 7-cycle fabric;
    frames are identified by their size."""

    START = 3_000

    def __init__(self, kind):
        self.eng = eng = Engine()
        self.fabric = fabric = EthernetFabric(eng, latency_cycles=7)
        self.arrivals = []
        fabric.attach("m1", lambda frame: self.arrivals.append(
            (eng.now, frame.nbytes)))
        if kind == "10g":
            self.mac = mac = TenGigMac(eng, fabric, "m0")
            mac.assert_reset()
            mac.release_reset()
            eng.run(until=TenGigMac.RESET_CYCLES)
            mac.enable_tx_rx()
        else:
            self.mac = mac = HundredGigMac(eng, fabric, "m0")
            mac.write_reg("cfg_tx_enable", 1)
            mac.write_reg("cfg_rx_enable", 1)
        eng.run(until=self.START)
        assert mac.ready

    @staticmethod
    def frame(nbytes):
        return EthernetFrame("m0", "m1", nbytes)


def test_10g_three_back_to_back_frames():
    rig = MacRig("10g")
    done = []
    for nbytes in (64, 1500, 700):
        rig.mac.send_frame(rig.frame(nbytes)).add_callback(
            lambda ev: done.append((rig.eng.now, ev.value.nbytes)))
    rig.eng.run(until=10_000)
    assert (done, rig.arrivals, rig.mac.frames_sent) == TEN_GIG_THREE


def test_100g_three_back_to_back_frames():
    rig = MacRig("100g")
    assert [rig.mac.tx_push(rig.frame(nbytes))
            for nbytes in (64, 1500, 700)] == [True] * 3
    rig.eng.run(until=10_000)
    assert (rig.arrivals, rig.mac.frames_sent) == HUNDRED_GIG_THREE


def test_100g_fifo_full_refuses_the_fifth_frame_of_a_cycle():
    rig = MacRig("100g")
    pushed = [rig.mac.tx_push(rig.frame(1500 - i)) for i in range(6)]
    space = rig.mac.tx_fifo_space
    rig.eng.run(until=rig.START + 1)
    assert (pushed, space, rig.mac.tx_fifo_space) == (
        [True] * 4 + [False] * 2, 0, 1)
    assert rig.mac.tx_push(rig.frame(1000))  # room again once one is out
    rig.eng.run(until=10_000)
    assert rig.arrivals == HUNDRED_GIG_FIFO_FULL


def test_network_service_retries_a_full_100g_fifo():
    """Six frames handed to the network tile's transmit path on one cycle
    (a go-back-N window going again): four fit the core's FIFO, the adapter
    polls for the other two."""
    rig = MacRig("100g")
    service = NetworkService("svc.net", HundredGigAdapter(rig.mac))
    service._engine = rig.eng
    for i in range(6):
        service._tx_frame(rig.frame(1500 - i))
    rig.eng.run(until=rig.START + 65)
    service._tx_frame(rig.frame(200))  # mid-burst, with room: goes straight in
    rig.eng.run(until=10_000)
    assert rig.arrivals == NETWORK_SERVICE_FIFO_FULL


TEN_GIG_THREE = (
    [(3013, 64), (3313, 1500), (3453, 700)],
    [(3020, 64), (3320, 1500), (3460, 700)],
    3
)
HUNDRED_GIG_THREE = (
    [(3009, 64), (3039, 1500), (3053, 700)], 3
)
HUNDRED_GIG_FIFO_FULL = [
    (3037, 1500), (3067, 1499), (3097, 1498), (3127, 1497), (3147, 1000)
]
NETWORK_SERVICE_FIFO_FULL = [
    (3037, 1500),
    (3067, 1499),
    (3097, 1498),
    (3127, 1497),
    (3157, 1496),
    (3187, 1495),
    (3191, 200)
]


# -- the whole path: two boards, NoC -> monitor -> net tile -> MAC -> fabric ------------


class Pinger(Accelerator):
    """Sends each payload to the peer board's port 7 and logs the cycle it
    is ACKed and the cycle the echo reaches this tile."""

    def __init__(self, name, peer_mac, sizes):
        super().__init__(name)
        self.peer_mac = peer_mac
        self.sizes = sizes
        self.log = []

    def main(self, shell):
        yield shell.net_bind(7)
        for i, nbytes in enumerate(self.sizes):
            sent = shell.engine.now
            yield shell.net_send(self.peer_mac, 7, data=i, nbytes=nbytes)
            acked = shell.engine.now
            msg = yield shell.recv()
            assert msg.op == "net.rx" and msg.payload["data"] == ("echo", i)
            self.log.append((sent, acked, shell.engine.now))


class Ponger(Accelerator):
    def __init__(self, name):
        super().__init__(name)
        self.log = []

    def main(self, shell):
        yield shell.net_bind(7)
        while True:
            msg = yield shell.recv()
            body = msg.payload
            self.log.append((shell.engine.now, body["data"]))
            yield shell.net_send(body["src_mac"], 7,
                                 data=("echo", body["data"]), nbytes=64)


def two_boards(engine, mac_a, mac_b):
    fabric = EthernetFabric(engine, latency_cycles=500)
    boards = [
        ApiarySystem(SystemConfig(noc=NocConfig(width=3, height=2),
                                  net=NetConfig(mac_kind=kind, mac_addr=mac)),
                     engine=engine, fabric=fabric)
        for kind, mac in ((mac_a, "boardA"), (mac_b, "boardB"))]
    for board in boards:
        board.boot()
    return boards


def start_echo_pair(engine, mac_a, mac_b):
    a, b = two_boards(engine, mac_a, mac_b)
    ponger = Ponger("ponger")
    pinger = Pinger("pinger", "boardB", sizes=(64, 3_000, 64, 1_400))
    started = [b.start_app(3, ponger), a.start_app(3, pinger)]
    engine.run_until_done(engine.all_of(started), limit=10_000_000)
    return pinger, ponger


def cross_board_echo(mac_a, mac_b):
    engine = Engine()
    pinger, ponger = start_echo_pair(engine, mac_a, mac_b)
    t0 = engine.now
    engine.run(until=t0 + 100_000)
    return t0, pinger.log, ponger.log


CROSS_BOARD_ECHO = {
    ("100g", "100g"): (1182800,
                       [(1182822, 1183852, 1183878),
                        (1183878, 1185152, 1185178),
                        (1185178, 1186208, 1186234),
                        (1186234, 1187375, 1187401)],
                       [(1183350, 0), (1184650, 1), (1185706, 2), (1186873, 3)]),
    ("10g", "100g"): (1182800,
                      [(1182822, 1183866, 1183892),
                       (1183892, 1185711, 1185737),
                       (1185737, 1186781, 1186807),
                       (1186807, 1188203, 1188229)],
                      [(1183364, 0), (1185209, 1), (1186279, 2), (1187701, 3)])
}


@pytest.mark.parametrize("macs", [("100g", "100g"), ("10g", "100g")],
                         ids="-".join)
def test_cross_board_echo_cycle_by_cycle(macs):
    assert cross_board_echo(*macs) == CROSS_BOARD_ECHO[macs]


class RxLog(Accelerator):
    """Binds port 9 and logs each ``net.rx`` as ``(cycle, data)``."""

    def __init__(self, name):
        super().__init__(name)
        self.log = []

    def main(self, shell):
        yield shell.net_bind(9)
        while True:
            msg = yield shell.recv()
            self.log.append((shell.engine.now, msg.payload["data"]))


def test_a_burst_reaches_its_tile_in_send_order_behind_a_rate_limited_net_tile():
    """A host sends twelve payloads back to back; the network tile's
    monitor may inject one 3-flit ``net.rx`` notify per 300 cycles, so
    most of the burst waits in its FIFO egress queue — and the bound tile
    still gets the payloads in send order, one every 301 cycles."""
    engine = Engine()
    fabric = EthernetFabric(engine, latency_cycles=500)
    board = ApiarySystem(
        SystemConfig(noc=NocConfig(width=3, height=2),
                     net=NetConfig(mac_addr="board")),
        engine=engine, fabric=fabric)
    board.boot()
    rx = RxLog("rx")
    engine.run_until_done(board.start_app(3, rx), limit=10_000_000)
    board.mgmt.set_rate_limit(NetConfig().tile, 0.01, burst=2)
    host = ReliableMux(engine, fabric.transmit, "host",
                       lambda peer, payload: None, window=16, timeout=50_000)
    fabric.attach("host", host.deliver_frame)
    t0 = engine.now
    for i in range(12):
        host.peer("board").send({"port": 9, "data": i, "src_mac": "host"},
                                payload_bytes=64)
    engine.run(until=t0 + 100_000)
    assert [(cycle - t0, data) for cycle, data in rx.log] == [
        (511 + 301 * i, i) for i in range(12)]


# -- (d) event budgets and tagger coverage --------------------------------------------
#
# ``schedule()`` calls are the engine events a path costs; calls into
# ``repro/`` and ``Event`` objects are its host work.


class Caller(Accelerator):
    def __init__(self, name):
        super().__init__(name)
        self.cost = None

    def main(self, shell):
        yield 1_000  # let the load's own events drain
        before = shell.engine.schedules
        yield shell.call("app.echo", "ping", payload="x", payload_bytes=64)
        self.cost = shell.engine.schedules - before


@pytest.mark.identity
def test_event_budget_of_one_shell_call_round_trip():
    """One ``Shell.call`` to an echo accelerator on another tile and its
    response: two NoC packets, two egress and two ingress interpositions."""
    system = ApiarySystem(
        SystemConfig(noc=NocConfig(width=2, height=2),
                     mem=MemConfig(enabled=False)),
        engine=CountingEngine())
    system.boot()
    system.run_until(system.start_app(3, EchoAccel("echo", cost=0),
                                      endpoint="app.echo"))
    caller = Caller("caller")
    started = system.start_app(0, caller)
    system.mgmt.grant_send("tile0", "app.echo")
    system.run_until(started)
    calls, frames = count_calls(
        lambda: system.run(until=system.engine.now + 5_000))
    assert caller.cost == SHELL_CALL_ROUND_TRIP_SCHEDULES
    assert calls == SHELL_CALL_ROUND_TRIP_CALLS
    assert frames["stdlib"] == frames["<...>"] == 0, frames


@pytest.mark.identity
def test_event_budget_of_one_reliable_send_and_its_ack():
    """One payload over a fabric, mux to mux, until nothing is pending: the
    data frame, the hand-off to the receiver, the ACK, and the
    retransmission timer running out."""
    eng = CountingEngine()
    fabric = EthernetFabric(eng, latency_cycles=50)
    got = []
    muxes = {}
    for mac in "AB":
        muxes[mac] = ReliableMux(
            eng, fabric.transmit, mac,
            lambda peer, payload: got.append((eng.now, peer, payload)),
            window=4, timeout=2_000)
        fabric.attach(mac, muxes[mac].deliver_frame)
    acked = []

    def send_and_run():
        muxes["A"].peer("B").send("x", payload_bytes=64,
                                  on_acked=lambda: acked.append(eng.now))
        eng.run()

    calls, frames = count_calls(send_and_run)
    assert got == [(50, "A", "x")] and acked == [100]
    assert eng.pending_events() == 0
    assert eng.schedules == RELIABLE_SEND_AND_ACK_SCHEDULES
    assert calls == RELIABLE_SEND_AND_ACK_CALLS
    assert frames["stdlib"] == frames["<...>"] == 0, frames


#: ISSUE 22 (callback message path) re-pinned these once, on purpose: one
#: round trip 28 -> 22 (each of its two messages pays 2 + 2 monitor events
#: instead of 4 + 3), one send and its ACK 9 -> 4 (no sender wake, no pump
#: wake, no process per transmitted frame; the timer entry remains).  The
#: round trip again when the monitor came to reach its network interface
#: by plain calls: 22 -> 16 (per message, no ring hop for the injection's
#: completion event and none for the delivery channel's get and put; the
#: ring hop that starts a packet remains).  The round trip once more when
#: the monitor came to call its submitter back instead of triggering an
#: admission event: 16 -> 15 (the call's no-op callback on that event).
SHELL_CALL_ROUND_TRIP_SCHEDULES = 15
RELIABLE_SEND_AND_ACK_SCHEDULES = 4

#: The host work of the same two paths (``conftest.count_calls``): calls
#: into ``def``s under ``repro/`` and ``Event`` objects built.  The round
#: trip's run also resumes the caller from its 1 000-cycle sleep.  Pinned
#: at (233, 4) and (35, 1), then the message path stopped minting events
#: nobody waits on: the round trip keeps the call's result event, the echo
#: accelerator's receive and its reply's admission event (233 -> 199, 4 ->
#: 3); a send passes ``on_acked`` instead of returning an ``acked`` event,
#: and the mux dispatches a frame itself (35 -> 27, 1 -> 0).  Then frames,
#: messages and packets were built in one ``__init__``, the SEND check
#: became an integer test and each layer hop one call (199 -> 181, 27 ->
#: 22).  Then a consumed flit's interface put the router's LOCAL credit
#: back itself instead of calling the router for it, once per packet (181
#: -> 179).  Then, per message, the lane's state came to live on the
#: network (no ``_Express``; its route check is a call of its own) and its
#: commit to follow the route's plan and hand the tail over without
#: consuming it (``_commit`` for ``_materialize``, no ``_consumed``): 179
#: -> 177.  Neither path enters the standard library or code named
#: ``<...>`` (the round trip entered 3 ``enum`` frames and 6 of a
#: comprehension before).
SHELL_CALL_ROUND_TRIP_CALLS = (177, 3)
RELIABLE_SEND_AND_ACK_CALLS = (22, 0)


def test_cross_board_request_books_monitor_and_mac_events_to_their_layers():
    """``perf.trace``'s tagger on every callback of a cross-board echo: the
    three hot kinds of this path all occur, and no event of it is booked to
    ``sim`` — each belongs to the layer whose code it runs."""
    engine = TaggingEngine()
    pinger, _ponger = start_echo_pair(engine, "100g", "10g")
    engine.layers.clear()  # boot and load are not this path
    engine.kinds.clear()
    engine.run(until=engine.now + 100_000)
    assert len(pinger.log) == 4
    for kind in ("kernel.monitor_egress", "kernel.monitor_ingress",
                 "net.mac_tx", "net.fabric_arrive"):
        assert engine.kinds[kind] > 0, (kind, engine.kinds)
    assert engine.layers["sim"] == 0, engine.layers
    assert engine.layers["kernel"] > 0 and engine.layers["net"] > 0
