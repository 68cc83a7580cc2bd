"""Ethernet frames and the datacenter fabric connecting boards and hosts.

The fabric is the "datacenter network" a direct-attached FPGA plugs into:
endpoints are MAC addresses, frames propagate with a configurable latency,
and an optional loss process exercises the reliable transport.
"""

from __future__ import annotations

import itertools
import pickle
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.errors import ConfigError
from repro.sim import Engine

__all__ = ["EthernetFrame", "EthernetFabric", "wire_copy",
           "MIN_FRAME_BYTES", "MAX_FRAME_BYTES"]

MIN_FRAME_BYTES = 64
MAX_FRAME_BYTES = 1518  # classic MTU; jumbo support is a fabric option


def wire_copy(obj: Any) -> Any:
    """Copy a frame payload as if it crossed a pipe between processes.

    A wire header copies itself: a type with a ``wire_copy()`` method
    promises a fresh instance that shares no mutable object with the
    original and calls ``wire_copy`` on whatever it carries in turn.
    Everything else goes through ``pickle``, so an unpicklable application
    payload fails here exactly as it would on a real pipe.
    """
    if obj is None:
        return None
    copier = getattr(obj, "wire_copy", None)
    if copier is not None:
        return copier()
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


@dataclass
class EthernetFrame:
    """One L2 frame.  ``payload`` rides as an opaque object; ``nbytes`` is
    what the wire sees (header + payload, clamped to the minimum size)."""

    src_mac: str
    dst_mac: str
    nbytes: int
    payload: Any = None
    ethertype: int = 0x0800
    sent_at: int = -1

    def __post_init__(self) -> None:
        if self.nbytes < MIN_FRAME_BYTES:
            self.nbytes = MIN_FRAME_BYTES


class EthernetFabric:
    """A switched datacenter segment with per-hop latency and optional loss.

    Endpoints register a MAC address and a delivery callback.  Frames to an
    unknown MAC are dropped (counted), matching real switch flood/drop
    behaviour closely enough for our experiments.
    """

    def __init__(
        self,
        engine: Engine,
        latency_cycles: int = 500,
        loss_rate: float = 0.0,
        jumbo: bool = False,
        rng: Optional[np.random.Generator] = None,
    ):
        if latency_cycles < 1:
            raise ConfigError(f"fabric latency must be >= 1, got {latency_cycles}")
        if not 0.0 <= loss_rate < 1.0:
            raise ConfigError(f"loss rate must be in [0,1), got {loss_rate}")
        if loss_rate > 0.0 and rng is None:
            raise ConfigError("loss injection needs an rng stream")
        self.engine = engine
        self.latency_cycles = latency_cycles
        self.loss_rate = loss_rate
        self.max_frame = 9000 if jumbo else MAX_FRAME_BYTES
        self._rng = rng
        self._endpoints: Dict[str, Callable[[EthernetFrame], None]] = {}
        self._partitioned: set = set()
        self.frames_delivered = 0
        self.frames_dropped = 0
        self.frames_lost = 0
        self.frames_partitioned = 0
        self.bytes_carried = 0

    def attach(self, mac: str, deliver: Callable[[EthernetFrame], None]) -> None:
        if mac in self._endpoints:
            raise ConfigError(f"MAC {mac!r} already attached")
        self._endpoints[mac] = deliver

    def detach(self, mac: str) -> None:
        self._endpoints.pop(mac, None)

    def partition(self, mac: str) -> None:
        """Cut ``mac`` off the segment *both ways* — frames it sends and
        frames sent to it vanish in flight.  Unlike :meth:`detach` the
        endpoint stays attached and keeps transmitting into the void,
        which is exactly the asymmetric-knowledge failure (the node
        believes it is fine) that epoch fencing exists to contain."""
        self._partitioned.add(mac)

    def heal(self, mac: str) -> None:
        """Reconnect a partitioned endpoint."""
        self._partitioned.discard(mac)

    def transmit(self, frame: EthernetFrame) -> None:
        """Inject a frame; delivery happens ``latency_cycles`` later."""
        if frame.nbytes > self.max_frame:
            raise ConfigError(
                f"frame of {frame.nbytes}B exceeds fabric MTU {self.max_frame}"
            )
        frame.sent_at = self.engine.now
        if self._partitioned and (frame.src_mac in self._partitioned
                                  or frame.dst_mac in self._partitioned):
            self.frames_partitioned += 1
            return
        if self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
            self.frames_lost += 1
            return
        deliver = self._endpoints.get(frame.dst_mac)
        if deliver is None:
            self.frames_dropped += 1
            return
        self.bytes_carried += frame.nbytes

        def arrive(_arg) -> None:
            self.frames_delivered += 1
            deliver(frame)

        self.engine.schedule(self.latency_cycles, arrive)
