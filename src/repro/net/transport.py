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

A sender that wants to hear its payload's ACK passes ``send(...,
on_acked=f)``: ``f()`` is called inside the handling of the ACK frame
that covers the payload, where an ``acked`` event used to be triggered (a
caller that must run one ring hop later, where that event's callback ran,
schedules the hop itself).  ``f`` stays beside the datagram in the
sender's window, never in it, so a frame's wire copy carries nothing new.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.net.frame import MAX_FRAME_BYTES, EthernetFrame, wire_copy
from repro.sim import Engine

__all__ = ["ReliableEndpoint", "ReliableMux", "Datagram",
           "TRANSPORT_HEADER_BYTES", "MAX_SEGMENT", "BOARD_WINDOW",
           "BOARD_TIMEOUT", "HOST_WINDOW", "HOST_TIMEOUT"]

TRANSPORT_HEADER_BYTES = 16
#: the largest payload one datagram carries in a classic-MTU frame; a
#: larger payload is segmented into several datagrams and reassembled in
#: order at the receiver (go-back-N already gives ordered, exactly-once
#: fragments)
MAX_SEGMENT = MAX_FRAME_BYTES - TRANSPORT_HEADER_BYTES

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


class ReliableEndpoint:
    """One side of a reliable pairwise connection.

    Parameters
    ----------
    send_frame: callable delivering an :class:`EthernetFrame` toward the
        peer (typically a MAC adapter's tx path).
    local_mac / peer_mac: addressing for emitted frames.
    on_payload: the receiver.  Called with each payload, in order and
        exactly once, one same-cycle hop after the frame that completed it
        (its ACK is on the wire by then).
    window: go-back-N sender window in datagrams.
    timeout: retransmission timeout in cycles.

    A :class:`ReliableMux` builds the endpoints and dispatches each frame
    to ``_handle_data`` / ``_handle_ack``: the one datagram-kind switch.
    """

    def __init__(
        self,
        engine: Engine,
        send_frame: Callable[[EthernetFrame], None],
        local_mac: str,
        peer_mac: str,
        on_payload: Callable[[Any], None],
        window: int = 8,
        timeout: int = 5000,
        name: str = "",
    ):
        if window < 1:
            raise ConfigError(f"window must be >= 1, got {window}")
        if timeout < 1:
            raise ConfigError(f"timeout must be >= 1, got {timeout}")
        self.engine = engine
        self.send_frame = send_frame
        self.local_mac = local_mac
        self.peer_mac = peer_mac
        self.window = window
        self.timeout = timeout
        self.name = name or f"rt.{local_mac}->{peer_mac}"

        # sender state
        self._next_seq = 0          # next new sequence number
        self._base = 0              # oldest unacked
        #: datagrams in flight, each with its ``on_acked`` (or None)
        self._outstanding: Deque[Tuple[Datagram, Optional[Callable]]] = \
            deque()
        #: segments the window has not let out yet: (datagram without its
        #: sequence number, the caller's ``on_acked`` if it is a payload's
        #: last, whether it is one of several)
        self._unsent: Deque[Tuple[Datagram, Optional[Callable], bool]] = \
            deque()
        #: the cycle the retransmission timer runs out (None: disarmed),
        #: and whether a heap entry is on its way to look at it
        self._deadline: Optional[int] = None
        self._timer_pending = False

        # receiver state
        self._expected_seq = 0
        self._on_payload = on_payload
        #: in-order payloads the receiver has not been handed yet, and
        #: whether the ring hop that hands over the head is on its way
        self._backlog: Deque[Any] = deque()
        self._hop_pending = False

        self.datagrams_sent = 0
        self.fragments_sent = 0
        self.retransmissions = 0
        self.acks_sent = 0
        self.duplicates_dropped = 0

    # -- sending ------------------------------------------------------------

    def send(self, payload: Any, payload_bytes: int = 0,
             on_acked: Optional[Callable[[], None]] = None) -> None:
        """Send a payload — at once while the window has room, else as ACKs
        make room; ``on_acked()`` is called when the peer has ACKed it."""
        seq = self._next_seq
        if payload_bytes <= MAX_SEGMENT and not self._unsent \
                and seq - self._base < self.window:
            # one segment, straight out: what _segment, _fill_window,
            # _emit and _arm_timer do, in this one call
            self._next_seq = seq + 1
            dgram = Datagram("data", seq, payload, payload_bytes)
            outstanding = self._outstanding
            outstanding.append((dgram, on_acked))
            self.send_frame(EthernetFrame(
                self.local_mac, self.peer_mac,
                TRANSPORT_HEADER_BYTES + payload_bytes, dgram))
            self.datagrams_sent += 1
            if len(outstanding) == 1:
                self._deadline = self.engine.now + self.timeout
                if not self._timer_pending:
                    self._timer_pending = True
                    self.engine.schedule(self.timeout, self._timer_fired)
            return
        segments = self._segment(payload, payload_bytes)
        last = len(segments) - 1
        for i, (seg_payload, seg_bytes) in enumerate(segments):
            dgram = Datagram(kind="data", seq=-1, payload=seg_payload,
                             payload_bytes=seg_bytes, frag_rest=last - i)
            # the caller's on_acked rides on the *last* fragment
            self._unsent.append((dgram, on_acked if i == last else None,
                                 last > 0))
        self._fill_window()

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
        if payload_bytes <= MAX_SEGMENT:
            return [(payload, payload_bytes)]
        segments = []
        remaining = payload_bytes
        while remaining > MAX_SEGMENT:
            segments.append((None, MAX_SEGMENT))
            remaining -= MAX_SEGMENT
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

    # -- receiving (the owning mux's deliver_frame dispatches) -----------------

    def _handle_data(self, dgram: Datagram) -> None:
        if dgram.seq == self._expected_seq:
            self._expected_seq += 1
            # leading fragments only occupy the wire; the last one (or any
            # unfragmented datagram) delivers the application payload
            if dgram.frag_rest == 0:
                self._backlog.append(dgram.payload)
                if not self._hop_pending:
                    self._hop_pending = True
                    self.engine.schedule(0, self._hand_off)
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

    def _hand_off(self, _arg=None) -> None:
        """Hand the backlog's head to the receiver, one ring hop after it
        arrived.  The hop lets the frame's ACK leave first and orders the
        receiver's same-cycle payloads: handed off inline, the front-end
        admits requests that meet at ``max_pending`` in another order
        (``test_the_fabric_path_rejects_at_max_pending_and_answers_everything_else``
        rejects request b instead of c)."""
        self._on_payload(self._backlog.popleft())
        if self._backlog:
            self.engine.schedule(0, self._hand_off)
        else:
            self._hop_pending = False

    def _handle_ack(self, cumulative: int) -> None:
        progressed = False
        while self._outstanding and self._outstanding[0][0].seq < cumulative:
            _dgram, on_acked = self._outstanding.popleft()
            self._base += 1
            if on_acked is not None:
                on_acked()
            progressed = True
        if progressed:
            if self._outstanding:
                self._arm_timer()
            else:
                self._deadline = None
            if self._unsent:
                self._fill_window()

    # -- inspection -----------------------------------------------------------

    @property
    def unacked(self) -> int:
        return len(self._outstanding)


class ReliableMux:
    """Every reliable connection of one fabric endpoint, demuxed by peer MAC.

    The layer every host and the network tile put on top of
    :class:`ReliableEndpoint`: one connection per peer, created at the
    first send to or first frame from that peer.  Every in-order payload
    is handed to ``on_payload(peer_mac, payload)``, one ring hop after
    the frame that completed it.

    The mux knows no fabric: the owner passes the transmit function as
    ``send_frame`` and wires :meth:`deliver_frame` into its MAC's rx path.
    ``window`` / ``timeout`` are the ``BOARD_*`` or ``HOST_*`` pair above.
    """

    def __init__(
        self,
        engine: Engine,
        send_frame: Callable[[EthernetFrame], None],
        mac: str,
        on_payload: Callable[[str, Any], None],
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
                partial(self.on_payload, peer_mac),
                window=self.window, timeout=self.timeout,
                name=f"{self.name}->{peer_mac}",
            )
        return endpoint

    @property
    def peers(self) -> Tuple[str, ...]:
        """The peer MACs a connection is open to, oldest first."""
        return tuple(self._peers)

    def deliver_frame(self, frame: EthernetFrame) -> None:
        """Feed frames from the owner's MAC rx path: a datagram goes to
        its connection's ACK or data handling."""
        endpoint = self._peers.get(frame.src_mac)
        if endpoint is None:
            endpoint = self.peer(frame.src_mac)
        dgram = frame.payload
        if not isinstance(dgram, Datagram):
            return  # not ours
        if dgram.kind == "ack":
            endpoint._handle_ack(dgram.seq)
        else:
            endpoint._handle_data(dgram)
