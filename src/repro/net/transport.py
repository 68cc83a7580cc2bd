"""Reliable transport over Ethernet frames (go-back-N).

Section 2 lists "reliable network protocols" among the higher-level services
FPGA developers are forced to build themselves today.  Apiary's network
service runs this transport so accelerators get in-order, loss-recovering
message delivery without knowing about sequence numbers or retransmission.

The implementation is a windowed go-back-N with cumulative ACKs — the
protocol real FPGA network stacks (and Caribou's TCP subset) implement,
small enough for hardware yet enough to recover from datacenter loss.

:class:`ReliableEndpoint` is one pairwise connection; :class:`ReliableMux`
is what a fabric endpoint actually holds — every connection of one MAC,
demuxed by peer.  It is built once, here, and used by the network tile and
by every software host alike.  Neither runs a process: ``send`` and the
frames the MAC delivers drive the protocol directly, the retransmission
timer is one heap entry per connection.  Payloads are ``{"port", "data",
"src_mac"}`` dicts; request/response is the convention ``data = ("req",
rid, body)`` / ``("resp", rid, body)`` with the caller matching ``rid`` —
that tuple convention is the repo's RPC layer, there is no RPC class.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.net.frame import EthernetFrame, wire_copy
from repro.sim import Channel, Engine, Event

__all__ = ["ReliableEndpoint", "ReliableMux", "Datagram",
           "TRANSPORT_HEADER_BYTES", "BOARD_WINDOW", "BOARD_TIMEOUT",
           "HOST_WINDOW", "HOST_TIMEOUT"]

TRANSPORT_HEADER_BYTES = 16

#: go-back-N (window in datagrams, retransmission timeout in cycles) of the
#: two kinds of fabric endpoint: the network tile keeps a hardware-sized
#: window and retransmits quickly; software hosts (clients, baselines, the
#: front-end, control planes) buffer more and wait out host-stack jitter
BOARD_WINDOW, BOARD_TIMEOUT = 8, 20_000
HOST_WINDOW, HOST_TIMEOUT = 16, 50_000


@dataclass
class Datagram:
    """What the transport carries: app payload plus protocol fields.

    Large application payloads are segmented into several datagrams:
    ``frag_rest`` counts the fragments that follow this one (0 = last or
    unfragmented); only the final fragment carries the payload object, the
    leading ones carry wire bytes only.
    """

    kind: str          # "data" | "ack"
    seq: int
    payload: Any = None
    payload_bytes: int = 0
    frag_rest: int = 0

    def wire_copy(self) -> "Datagram":
        """See :func:`repro.net.frame.wire_copy`: the fields are immutable
        scalars, the payload is the one thing that can alias."""
        return Datagram(self.kind, self.seq, wire_copy(self.payload),
                        self.payload_bytes, self.frag_rest)


#: ``ReliableEndpoint._held``: a callback that will hand the backlog's
#: head to the receiver is already on its way
_WAKING = object()


class ReliableEndpoint:
    """One side of a reliable pairwise connection.

    Parameters
    ----------
    send_frame: callable delivering an :class:`EthernetFrame` toward the
        peer (typically a MAC adapter's tx path).
    local_mac / peer_mac: addressing for emitted frames.
    window: go-back-N sender window in datagrams.
    timeout: retransmission timeout in cycles.
    mtu: largest frame the underlying fabric accepts; payloads above
        ``mtu - header`` are segmented into multiple datagrams and
        reassembled in order at the receiver (go-back-N already gives us
        ordered, exactly-once fragments).
    on_payload: the receiver.  Called with each payload, in order and
        exactly once, one same-cycle hop after the frame that completed it
        (its ACK is on the wire by then).  It may return an :class:`Event`:
        the next payload is held until that triggers.  Without a receiver
        the payloads appear on :attr:`inbox` instead.

    Wire ``deliver_frame`` into the local MAC's rx callback.
    """

    def __init__(
        self,
        engine: Engine,
        send_frame: Callable[[EthernetFrame], None],
        local_mac: str,
        peer_mac: str,
        window: int = 8,
        timeout: int = 5000,
        mtu: int = 1518,
        name: str = "",
        on_payload: Optional[Callable[[Any], Optional[Event]]] = None,
    ):
        if window < 1:
            raise ConfigError(f"window must be >= 1, got {window}")
        if timeout < 1:
            raise ConfigError(f"timeout must be >= 1, got {timeout}")
        if mtu <= TRANSPORT_HEADER_BYTES + 64:
            raise ConfigError(f"mtu {mtu} leaves no room for payload")
        self.engine = engine
        self.send_frame = send_frame
        self.local_mac = local_mac
        self.peer_mac = peer_mac
        self.window = window
        self.timeout = timeout
        self.max_segment = mtu - TRANSPORT_HEADER_BYTES
        self.name = name or f"rt.{local_mac}->{peer_mac}"

        # sender state
        self._next_seq = 0          # next new sequence number
        self._base = 0              # oldest unacked
        self._outstanding: Deque[Tuple[Datagram, Optional[Event]]] = deque()
        #: segments the window has not let out yet: (datagram without its
        #: sequence number, the caller's ack event if it is a payload's
        #: last, whether it is one of several)
        self._unsent: Deque[Tuple[Datagram, Optional[Event], bool]] = deque()
        #: the cycle the retransmission timer runs out (None: disarmed),
        #: and whether a heap entry is on its way to look at it
        self._deadline: Optional[int] = None
        self._timer_pending = False

        # receiver state
        self._expected_seq = 0
        self._on_payload = on_payload
        #: in-order payloads the receiver has not been handed yet, and what
        #: keeps the head: nothing, the event a blocking receiver returned,
        #: or ``_WAKING``
        self._backlog: Deque[Any] = deque()
        self._held: Any = None
        if on_payload is None:
            self.inbox: Channel = Channel(engine, capacity=None,
                                          name=f"{self.name}.inbox")

        self.datagrams_sent = 0
        self.fragments_sent = 0
        self.retransmissions = 0
        self.acks_sent = 0
        self.duplicates_dropped = 0

    # -- sending ------------------------------------------------------------

    def send(self, payload: Any, payload_bytes: int = 0) -> Event:
        """Send a payload — at once while the window has room, else as ACKs
        make room; the event succeeds when the peer has ACKed it."""
        acked = self.engine.event(f"{self.name}.acked")
        segments = self._segment(payload, payload_bytes)
        last = len(segments) - 1
        for i, (seg_payload, seg_bytes) in enumerate(segments):
            dgram = Datagram(kind="data", seq=-1, payload=seg_payload,
                             payload_bytes=seg_bytes, frag_rest=last - i)
            # the caller's ack event rides on the *last* fragment
            self._unsent.append((dgram, acked if i == last else None,
                                 last > 0))
        self._fill_window()
        return acked

    def _fill_window(self) -> None:
        unsent = self._unsent
        while unsent and self._next_seq - self._base < self.window:
            dgram, acked, fragment = unsent.popleft()
            dgram.seq = self._next_seq
            self._next_seq += 1
            self._outstanding.append((dgram, acked))
            self._emit(dgram)
            self.datagrams_sent += 1
            if fragment:
                self.fragments_sent += 1
            if len(self._outstanding) == 1:
                self._arm_timer()

    def _segment(self, payload: Any, payload_bytes: int):
        """Split a payload into MTU-sized (payload, bytes) segments.

        Only the final segment carries the payload object; the leading
        ones exist to occupy wire bytes (our payloads are opaque objects,
        so bytes are accounted, not sliced).
        """
        if payload_bytes <= self.max_segment:
            return [(payload, payload_bytes)]
        segments = []
        remaining = payload_bytes
        while remaining > self.max_segment:
            segments.append((None, self.max_segment))
            remaining -= self.max_segment
        segments.append((payload, remaining))
        return segments

    def _emit(self, dgram: Datagram) -> None:
        frame = EthernetFrame(
            src_mac=self.local_mac,
            dst_mac=self.peer_mac,
            nbytes=TRANSPORT_HEADER_BYTES + dgram.payload_bytes,
            payload=dgram,
        )
        self.send_frame(frame)

    def _arm_timer(self) -> None:
        """(Re)start the retransmission timer: it runs out ``timeout``
        cycles from now.  One heap entry serves it — an entry that fires
        early (ACK progress moved the deadline) re-schedules itself for the
        deadline, so a connection whose frames are ACKed long before the
        timeout leaves one entry behind, not one per frame."""
        self._deadline = self.engine.now + self.timeout
        if not self._timer_pending:
            self._timer_pending = True
            self.engine.schedule(self.timeout, self._timer_fired)

    def _timer_fired(self, _arg=None) -> None:
        self._timer_pending = False
        deadline = self._deadline
        if deadline is None:
            return  # everything was ACKed
        now = self.engine.now
        if now < deadline:
            self._timer_pending = True
            self.engine.schedule(deadline - now, self._timer_fired)
            return
        # go-back-N: retransmit the whole window
        for dgram, _acked in self._outstanding:
            self._emit(dgram)
            self.retransmissions += 1
        self._arm_timer()

    # -- receiving -----------------------------------------------------------

    def deliver_frame(self, frame: EthernetFrame) -> None:
        """Feed frames from the local MAC's rx path."""
        dgram = frame.payload
        if not isinstance(dgram, Datagram):
            return  # not ours
        if dgram.kind == "ack":
            self._handle_ack(dgram.seq)
        else:
            self._handle_data(dgram)

    def _handle_data(self, dgram: Datagram) -> None:
        if dgram.seq == self._expected_seq:
            self._expected_seq += 1
            # leading fragments only occupy the wire; the last one (or any
            # unfragmented datagram) delivers the application payload
            if dgram.frag_rest == 0:
                if self._on_payload is None:
                    self.inbox.try_put(dgram.payload)
                else:
                    self._backlog.append(dgram.payload)
                    self._wake()
        elif dgram.seq < self._expected_seq:
            self.duplicates_dropped += 1
        # out-of-order future datagrams are dropped (go-back-N receiver)
        # cumulative ACK for everything below expected
        ack = Datagram(kind="ack", seq=self._expected_seq)
        frame = EthernetFrame(
            src_mac=self.local_mac, dst_mac=self.peer_mac,
            nbytes=TRANSPORT_HEADER_BYTES, payload=ack,
        )
        self.acks_sent += 1
        self.send_frame(frame)

    def _wake(self) -> None:
        """The backlog has a head: get it handed off — one ring hop from
        now, or one after the event that holds it triggers."""
        held = self._held
        if held is _WAKING:
            return
        self._held = _WAKING
        if held is None or held.triggered:
            self.engine.schedule(0, self._hand_off)
        else:
            held.add_callback(self._hand_off)

    def _hand_off(self, _arg=None) -> None:
        self._held = self._on_payload(self._backlog.popleft())
        if self._backlog:
            self._wake()

    def _handle_ack(self, cumulative: int) -> None:
        progressed = False
        while self._outstanding and self._outstanding[0][0].seq < cumulative:
            _dgram, acked = self._outstanding.popleft()
            self._base += 1
            if acked is not None and not acked.triggered:
                acked.succeed(None)
            progressed = True
        if progressed:
            if self._outstanding:
                self._arm_timer()
            else:
                self._deadline = None
            self._fill_window()

    # -- inspection -----------------------------------------------------------

    @property
    def unacked(self) -> int:
        return len(self._outstanding)

    def recv(self) -> Event:
        """Event yielding the next in-order payload (no ``on_payload``)."""
        return self.inbox.get()


class ReliableMux:
    """Every reliable connection of one fabric endpoint, demuxed by peer MAC.

    The layer every host and the network tile put on top of
    :class:`ReliableEndpoint`: one connection per peer, created at the
    first send to or first frame from that peer.  Every in-order payload
    is handed to ``on_payload(peer_mac, payload)``.  When that
    returns an :class:`Event` the peer's next payload is held until it
    triggers, so a receiver that must block (the network tile's NoC
    notify) keeps per-peer order; other peers are unaffected.  The mux
    only waits for the event — a failure is the receiver's to handle.

    The mux knows no fabric: the owner passes the transmit function as
    ``send_frame`` and wires :meth:`deliver_frame` into its MAC's rx path.
    ``window`` / ``timeout`` are the ``BOARD_*`` or ``HOST_*`` pair above.
    """

    def __init__(
        self,
        engine: Engine,
        send_frame: Callable[[EthernetFrame], None],
        mac: str,
        on_payload: Callable[[str, Any], Optional[Event]],
        window: int,
        timeout: int,
        name: str = "",
    ):
        self.engine = engine
        self.send_frame = send_frame
        self.mac = mac
        self.on_payload = on_payload
        self.window = window
        self.timeout = timeout
        self.name = name or f"mux.{mac}"
        self._peers: Dict[str, ReliableEndpoint] = {}

    def peer(self, peer_mac: str) -> ReliableEndpoint:
        """The connection to ``peer_mac`` (opened on first use)."""
        endpoint = self._peers.get(peer_mac)
        if endpoint is None:
            endpoint = self._peers[peer_mac] = ReliableEndpoint(
                self.engine, self.send_frame, self.mac, peer_mac,
                window=self.window, timeout=self.timeout,
                name=f"{self.name}->{peer_mac}",
                on_payload=partial(self.on_payload, peer_mac),
            )
        return endpoint

    @property
    def peers(self) -> Tuple[str, ...]:
        """The peer MACs a connection is open to, oldest first."""
        return tuple(self._peers)

    def deliver_frame(self, frame: EthernetFrame) -> None:
        """Feed frames from the owner's MAC rx path."""
        self.peer(frame.src_mac).deliver_frame(frame)
