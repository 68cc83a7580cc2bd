"""Bare direct-attached FPGA — no OS at all.

The lower bound on latency and the zero-isolation point: accelerators hang
directly off the MAC with hand-wired dispatch, exactly the
everything-trusts-everything status quo Section 2 describes.  A fault in
*any* handler stops the whole board (there is no containment boundary), and
there is no rate limiting, no capabilities, no monitors.

Handlers follow the shared convention:
``handler(body) -> (compute_cycles, response_body, response_bytes)``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ConfigError, TileFault
from repro.net.frame import EthernetFabric, EthernetFrame
from repro.net.transport import HOST_TIMEOUT, HOST_WINDOW, ReliableMux
from repro.sim import Engine, Resource

__all__ = ["BareFpgaSystem", "Handler"]

Handler = Callable[[Any], Tuple[int, Any, int]]


class BareFpgaSystem:
    """Direct-attached FPGA with hand-wired accelerators.

    Compute concurrency: each port's handler is a dedicated accelerator
    (its own :class:`Resource`), matching spatially shared fabric.
    """

    def __init__(self, engine: Engine, fabric: EthernetFabric, mac_addr: str):
        self.engine = engine
        self.fabric = fabric
        self.mac_addr = mac_addr
        self._handlers: Dict[int, Handler] = {}
        self._units: Dict[int, Resource] = {}
        self.mux = ReliableMux(
            engine, fabric.transmit, mac_addr, self._on_payload,
            window=HOST_WINDOW, timeout=HOST_TIMEOUT,
            name=f"bare.{mac_addr}")
        self.dead = False  # a fault anywhere kills the whole board
        self.requests_served = 0
        self.requests_lost_to_fault = 0
        self.fpga_busy_cycles = 0  # energy accounting
        fabric.attach(mac_addr, self._rx_frame)

    def register(self, port: int, handler: Handler) -> None:
        if port in self._handlers:
            raise ConfigError(f"port {port} already wired")
        self._handlers[port] = handler
        self._units[port] = Resource(self.engine, slots=1,
                                     name=f"{self.mac_addr}.accel{port}")

    # -- datapath ---------------------------------------------------------------

    def _rx_frame(self, frame: EthernetFrame) -> None:
        if self.dead:
            return  # a hung board drops everything silently
        self.mux.deliver_frame(frame)

    def _on_payload(self, peer_mac: str, payload: Dict[str, Any]) -> None:
        if self.dead:
            self.requests_lost_to_fault += 1
            return
        data = payload.get("data")
        if not (isinstance(data, tuple) and data[0] == "req"):
            return
        self.engine.process(
            self._serve_one(peer_mac, payload),
            name=f"{self.mac_addr}.req",
        )

    def _serve_one(self, peer_mac: str, payload: Dict[str, Any]):
        _tag, rid, body = payload["data"]
        port = payload.get("port")
        handler = self._handlers.get(port)
        if handler is None:
            return  # nothing wired: silently dropped (no OS to NACK)
        unit = self._units[port]
        grant = yield unit.acquire()
        try:
            try:
                cycles, out_body, out_bytes = handler(body)
            except TileFault:
                # no isolation: the whole board wedges
                self.dead = True
                return
            self.fpga_busy_cycles += cycles
            yield cycles
        finally:
            unit.release(grant)
        self.requests_served += 1
        yield self.mux.peer(peer_mac).send(
            {"port": port, "data": ("resp", rid, out_body),
             "src_mac": self.mac_addr},
            payload_bytes=out_bytes,
        )
