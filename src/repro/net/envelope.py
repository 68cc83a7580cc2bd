"""Partition-aware Ethernet fabric for windowed (PDES) cluster backends.

The shared :class:`~repro.net.frame.EthernetFabric` assumes every endpoint
hangs off one engine: ``transmit`` resolves the destination callback
immediately and schedules delivery on the single shared clock.  The
windowed cluster backends break that assumption — each board (and the
host side: front-end plus clients) is a *partition* with a private engine
— so the fabric splits into per-partition views:

* frames whose destination lives in the **same partition** behave exactly
  as before (resolved and scheduled locally);
* frames to **another partition** are captured as serializable
  :class:`FrameEnvelope` records in the partition's outbox.  The backend
  drains outboxes at every window barrier and injects each envelope into
  the destination partition, where delivery is scheduled at
  ``send_cycle + latency_cycles`` — the exact cycle the shared fabric
  would have delivered it.

The fabric's fixed latency is what makes this sound: with window length
``w <= latency_cycles``, a frame sent anywhere inside a window arrives at
or after the *next* barrier, so partitions never miss cross-traffic by
running a window independently (the classic conservative-lookahead
argument; see DESIGN.md, "Windowed simulation").

Envelope payloads must be picklable: the windowed backend copies every
delivered envelope (:func:`pickle_roundtrip`: fresh envelope, payload
through :func:`~repro.net.frame.wire_copy`), so the receiver gets a
*copy* and no two partitions ever share a mutable object.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ConfigError, SimulationError
from repro.net.frame import EthernetFrame, EthernetFabric, wire_copy
from repro.sim import Engine

__all__ = ["FrameEnvelope", "PartitionFabric"]


class FrameEnvelope:
    """One cross-partition frame, flattened to picklable fields.

    ``seq`` is the sender-partition-local emission index; the backend's
    merge sort key ``(send_cycle, src_partition, seq)`` makes the global
    injection order a pure function of simulated behaviour, independent
    of which partitions ran in which order (or in which process).
    """

    __slots__ = ("seq", "src_partition", "send_cycle", "src_mac", "dst_mac",
                 "nbytes", "payload", "ethertype")

    def __init__(self, seq: int, src_partition: int, send_cycle: int,
                 src_mac: str, dst_mac: str, nbytes: int, payload,
                 ethertype: int):
        self.seq = seq
        self.src_partition = src_partition
        self.send_cycle = send_cycle
        self.src_mac = src_mac
        self.dst_mac = dst_mac
        self.nbytes = nbytes
        self.payload = payload
        self.ethertype = ethertype

    def sort_key(self):
        return (self.send_cycle, self.src_partition, self.seq)

    def to_frame(self) -> EthernetFrame:
        return EthernetFrame(src_mac=self.src_mac, dst_mac=self.dst_mac,
                             nbytes=self.nbytes, payload=self.payload,
                             ethertype=self.ethertype,
                             sent_at=self.send_cycle)

    def __repr__(self) -> str:
        return (f"<Envelope #{self.seq} p{self.src_partition} "
                f"{self.src_mac}->{self.dst_mac} @{self.send_cycle}>")


def pickle_roundtrip(envelope: FrameEnvelope) -> FrameEnvelope:
    """Copy an envelope the way a pipe would (the oracle's equalizer):
    the scalar fields cannot alias, so only the payload is copied."""
    return FrameEnvelope(
        envelope.seq, envelope.src_partition, envelope.send_cycle,
        envelope.src_mac, envelope.dst_mac, envelope.nbytes,
        wire_copy(envelope.payload), envelope.ethertype)


class PartitionFabric(EthernetFabric):
    """One partition's view of the shared Ethernet segment.

    ``partition_of`` maps MAC addresses to partition ids; unmapped MACs
    (clients, the front-end — attached at runtime) belong to the host
    partition 0.  No frame is lost at random, and a board fail-stop is
    propagated as a :meth:`mark_remote_detached` broadcast so senders drop
    frames to the dead MAC at transmit time, mirroring the shared fabric's
    unknown-destination drop.
    """

    def __init__(
        self,
        engine: Engine,
        partition_id: int,
        partition_of: Dict[str, int],
        latency_cycles: int = 500,
    ):
        super().__init__(engine, latency_cycles=latency_cycles)
        self.partition_id = partition_id
        self._partition_of = partition_of
        self._remote_detached: set = set()
        self._outbox: List[FrameEnvelope] = []
        self._out_seq = 0

    def mark_remote_detached(self, mac: str) -> None:
        """A MAC somewhere on the segment is gone (board fail-stop)."""
        self._remote_detached.add(mac)

    def transmit(self, frame: EthernetFrame) -> None:
        dst_partition = self._partition_of.get(frame.dst_mac, 0)
        if dst_partition == self.partition_id:
            super().transmit(frame)
            return
        # cross-partition path: same checks, in the same order, as the
        # local path — then capture instead of schedule
        if frame.nbytes > self.max_frame:
            raise ConfigError(
                f"frame of {frame.nbytes}B exceeds fabric MTU {self.max_frame}"
            )
        frame.sent_at = self.engine.now
        if self._partitioned and (frame.src_mac in self._partitioned
                                  or frame.dst_mac in self._partitioned):
            self.frames_partitioned += 1
            return
        if frame.dst_mac in self._remote_detached:
            self.frames_dropped += 1
            return
        self.bytes_carried += frame.nbytes
        self._out_seq += 1
        self._outbox.append(FrameEnvelope(
            seq=self._out_seq, src_partition=self.partition_id,
            send_cycle=self.engine.now, src_mac=frame.src_mac,
            dst_mac=frame.dst_mac, nbytes=frame.nbytes,
            payload=frame.payload, ethertype=frame.ethertype,
        ))

    def drain_outbox(self) -> List[FrameEnvelope]:
        """Hand the window's cross-partition frames to the backend."""
        out, self._outbox = self._outbox, []
        return out

    def inject(self, envelope: FrameEnvelope) -> None:
        """Schedule an inbound cross-partition frame for local delivery.

        Delivery lands at ``send_cycle + latency_cycles`` exactly; the
        conservative window bound guarantees that cycle has not run yet
        (a window stops short of its barrier cycle, so arriving *at* the
        clock is legal) — an envelope that breaks it is a protocol bug
        and raises instead of being delivered late.
        The endpoint is resolved at *delivery* time — a board killed
        between send and arrival drops the frame then, which is when the
        shared fabric's in-flight frames would have hit a detached MAC's
        absence too.
        """
        frame = envelope.to_frame()
        arrival = envelope.send_cycle + self.latency_cycles
        if arrival < self.engine.now:
            raise SimulationError(
                f"partition {self.partition_id}: {envelope!r} arrives at "
                f"cycle {arrival}, but the partition has already run to "
                f"cycle {self.engine.now} (lookahead violated)")

        def arrive(_arg) -> None:
            deliver = self._endpoints.get(frame.dst_mac)
            if deliver is None:
                self.frames_dropped += 1
                return
            self.frames_delivered += 1
            deliver(frame)

        self.engine.schedule(arrival - self.engine.now, arrive)
