"""The Apiary message format — the API-level interface of Section 4.3.

Every interaction in Apiary is a :class:`Message` carried over the NoC.
Destinations are *logical endpoint names* ("svc.mem", "app.encoder0"), not
physical tile ids: "The NoC allows us to move service naming to an
API-layer interface by making the destination ID a message field."  The
per-tile monitor resolves names through its local name table and enforces
capabilities before anything reaches the fabric.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

from repro.cap.capability import CapabilityRef
from repro.errors import ProtocolError

__all__ = ["MessageKind", "Message", "MemAccess", "MESSAGE_HEADER_BYTES"]

#: Wire overhead of the Apiary header (ids, op, cap ref) on top of payload.
MESSAGE_HEADER_BYTES = 32


class MessageKind(enum.Enum):
    REQUEST = "request"    # expects a RESPONSE or ERROR with the same mid
    RESPONSE = "response"
    ERROR = "error"
    EVENT = "event"        # one-way notification


@dataclass(init=False)
class Message:
    """One Apiary message.

    Attributes
    ----------
    src: sender endpoint name (stamped by the monitor — accelerators cannot
        spoof their identity).
    dst: destination endpoint name.
    op: operation selector within the destination service's API.
    kind: request/response/error/event.
    mid: correlation id; responses carry the request's mid.  Stamped by
        the sending shell from its *board's* allocator (each direct-attached
        FPGA numbers its own messages); 0 = not stamped (hand-built).
    payload / payload_bytes: opaque body and its wire size.
    cap: optional capability reference accompanying the operation (e.g. the
        memory capability for a read/write).
    trace_id / span_id: causal-tracing context (0 = untraced).  ``trace_id``
        identifies the root request; ``span_id`` is the span the next stage
        handling this message should parent under.  Stamped by the shell
        when span tracing is enabled, propagated into responses by
        :meth:`make_response`, and carried across the NoC inside packets.

    The ``__init__`` is written out (the dataclass gives the fields,
    equality and repr) so that building a message is one Python frame.
    """

    src: str
    dst: str
    op: str
    kind: MessageKind = MessageKind.REQUEST
    mid: int = 0
    payload: Any = None
    payload_bytes: int = 0
    cap: Optional[CapabilityRef] = None
    sent_at: int = -1
    trace_id: int = 0
    span_id: int = 0

    def __init__(self, src: str, dst: str, op: str,
                 kind: MessageKind = MessageKind.REQUEST, mid: int = 0,
                 payload: Any = None, payload_bytes: int = 0,
                 cap: Optional[CapabilityRef] = None, sent_at: int = -1,
                 trace_id: int = 0, span_id: int = 0) -> None:
        if not dst:
            raise ProtocolError("message needs a destination endpoint")
        if payload_bytes < 0:
            raise ProtocolError(f"negative payload size {payload_bytes}")
        self.src = src
        self.dst = dst
        self.op = op
        self.kind = kind
        self.mid = mid
        self.payload = payload
        self.payload_bytes = payload_bytes
        self.cap = cap
        self.sent_at = sent_at
        self.trace_id = trace_id
        self.span_id = span_id

    @property
    def wire_bytes(self) -> int:
        return MESSAGE_HEADER_BYTES + self.payload_bytes

    def make_response(self, payload: Any = None, payload_bytes: int = 0,
                      error: bool = False) -> "Message":
        """A response correlated to this request (src/dst swapped)."""
        if self.kind != MessageKind.REQUEST:
            raise ProtocolError(f"cannot respond to a {self.kind.value} message")
        return Message(
            src=self.dst,
            dst=self.src,
            op=self.op,
            kind=MessageKind.ERROR if error else MessageKind.RESPONSE,
            mid=self.mid,
            payload=payload,
            payload_bytes=payload_bytes,
            trace_id=self.trace_id,
            span_id=self.span_id,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Msg {self.kind.value} {self.src}->{self.dst} op={self.op} "
            f"mid={self.mid} {self.payload_bytes}B>"
        )


@dataclass(frozen=True, init=False)
class MemAccess:
    """Payload of a memory read/write request.

    ``offset`` is segment-relative: accelerators never see physical
    addresses (Section 4.6's isolation property).  Validated in its one
    ``__init__``, as :class:`Message` is.
    """

    offset: int
    nbytes: int
    data: Any = None  # writes carry data; reads carry None

    def __init__(self, offset: int, nbytes: int, data: Any = None) -> None:
        if offset < 0:
            raise ProtocolError(f"negative offset {offset}")
        if nbytes < 1:
            raise ProtocolError(f"access needs >= 1 byte, got {nbytes}")
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "nbytes", nbytes)
        object.__setattr__(self, "data", data)
