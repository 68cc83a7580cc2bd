"""Packets and flits — the units of NoC transfer.

Apiary messages are carried over the NoC as *packets*; a packet is split
into fixed-width *flits* (flow-control units).  Wormhole switching forwards
a packet flit-by-flit: the head flit opens a path through each router and
the tail flit releases it, so buffers stay small (the property that makes
hardened NoCs cheap, which the paper leans on).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigError

__all__ = ["FlitKind", "Flit", "Packet", "flits_for_bytes"]

#: Bytes carried by one flit.  128-bit links are typical for hardened NoCs
#: (Versal's NoC moves 128 bits/cycle per channel).
DEFAULT_FLIT_BYTES = 16

#: Bytes of packet header carried in the head flit (routing + Apiary header).
HEADER_BYTES = 16


class FlitKind(enum.Enum):
    HEAD = "head"
    BODY = "body"
    TAIL = "tail"
    #: single-flit packet: head and tail at once
    HEADTAIL = "headtail"


def flits_for_bytes(payload_bytes: int, flit_bytes: int = DEFAULT_FLIT_BYTES) -> int:
    """Number of flits for a payload, including the header flit."""
    if payload_bytes < 0:
        raise ConfigError(f"negative payload size {payload_bytes}")
    return 1 + math.ceil(payload_bytes / flit_bytes)


@dataclass(init=False)
class Packet:
    """One NoC packet.

    Attributes
    ----------
    pid: globally unique packet id (assigned by the network).
    src, dst: node ids in the topology.
    size_flits: total flits including the head.
    vc_class: traffic class; mapped to a virtual-channel set by routers.
      Class 0 is best-effort, higher classes get dedicated VCs (QoS).
    payload: opaque payload object (the Apiary message rides here).

    The ``__init__`` is written out (the dataclass gives the fields,
    equality and repr) so that building a packet is one Python frame.
    """

    pid: int
    src: int
    dst: int
    size_flits: int
    vc_class: int = 0
    payload: Any = None
    injected_at: int = -1
    delivered_at: int = -1
    hops: int = 0
    #: dateline-routing state (torus only): current VC tier and the
    #: dimension being traversed; managed by routers, reset per dimension
    dateline_vc: int = 0
    dateline_dim: str = ""
    #: causal tracing (0 = untraced): trace id copied from the payload
    #: message at injection, and the id of the open ``noc.transit`` span
    #: the delivery path must close
    trace_id: int = 0
    span_id: int = 0

    def __init__(self, pid: int, src: int, dst: int, size_flits: int,
                 vc_class: int = 0, payload: Any = None,
                 injected_at: int = -1, delivered_at: int = -1,
                 hops: int = 0, dateline_vc: int = 0, dateline_dim: str = "",
                 trace_id: int = 0, span_id: int = 0) -> None:
        if size_flits < 1:
            raise ConfigError(f"packet needs >= 1 flit, got {size_flits}")
        if vc_class < 0:
            raise ConfigError(f"negative vc_class {vc_class}")
        self.pid = pid
        self.src = src
        self.dst = dst
        self.size_flits = size_flits
        self.vc_class = vc_class
        self.payload = payload
        self.injected_at = injected_at
        self.delivered_at = delivered_at
        self.hops = hops
        self.dateline_vc = dateline_vc
        self.dateline_dim = dateline_dim
        self.trace_id = trace_id
        self.span_id = span_id

    @property
    def latency(self) -> int:
        """Injection-to-delivery latency in cycles (-1 while in flight)."""
        if self.delivered_at < 0 or self.injected_at < 0:
            return -1
        return self.delivered_at - self.injected_at

    def make_flits(self) -> "list[Flit]":
        """Expand the packet into its flit sequence."""
        last = self.size_flits - 1
        if not last:
            return [Flit(FlitKind.HEADTAIL, self, 0)]
        flits = [Flit(FlitKind.HEAD, self, 0)]
        for i in range(1, last):
            flits.append(Flit(FlitKind.BODY, self, i))
        flits.append(Flit(FlitKind.TAIL, self, last))
        return flits


class Flit:
    """One flow-control unit of a packet."""

    __slots__ = ("kind", "packet", "seq", "vc", "is_head", "is_tail")

    def __init__(self, kind: FlitKind, packet: Packet, seq: int,
                 vc: int = 0) -> None:
        self.kind = kind
        self.packet = packet
        self.seq = seq
        #: virtual channel assigned on the link the flit currently occupies
        self.vc = vc
        #: head/tail flags, precomputed once — routers consult these per
        #: flit per hop, and a property call there is measurable at flood
        #: rates
        self.is_head = kind is FlitKind.HEAD or kind is FlitKind.HEADTAIL
        self.is_tail = kind is FlitKind.TAIL or kind is FlitKind.HEADTAIL

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Flit p{self.packet.pid} {self.kind.value} "
            f"{self.seq}/{self.packet.size_flits - 1} vc{self.vc}>"
        )
