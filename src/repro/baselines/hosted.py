"""Host-mediated FPGA (Coyote-style) — the baseline Apiary argues against.

"Earlier efforts to build FPGA operating systems, such as Coyote and
AmorphOS, delegate key operating system functions such as memory management
and virtualization to an attached server CPU" (Section 1).  Here the
datapath is: NIC -> host kernel (or bypass) stack on a CPU core -> PCIe DMA
to the FPGA -> accelerator compute -> DMA back -> host stack -> NIC.

Every stage charges realistic costs from :mod:`repro.net.hoststack`; the
host CPU's scheduling jitter is the mechanism behind the hosted tail
latencies D2 measures, and ``cpu.cycles_used`` is D3's CPU-overhead metric.
Permissions are host-managed (a dict keyed by client MAC), mirroring
Coyote's "every accelerator is attached to a specific CPU process ... with
permissions managed by the host OS."
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Set, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.net.frame import EthernetFabric
from repro.net.hoststack import HostCpu, HostNetStack, PcieLink
from repro.net.transport import HOST_TIMEOUT, HOST_WINDOW, ReliableMux
from repro.sim import Engine, Resource

__all__ = ["HostedFpgaSystem"]

Handler = Callable[[Any], Tuple[int, Any, int]]


class HostedFpgaSystem:
    """A server with a PCIe-attached FPGA, Coyote-style."""

    def __init__(
        self,
        engine: Engine,
        fabric: EthernetFabric,
        mac_addr: str,
        cores: int = 4,
        kernel_bypass: bool = False,
        pcie_gen: int = 3,
        vfpga_slots: int = 4,
        rng: Optional[np.random.Generator] = None,
        jitter_prob: float = 0.15,
    ):
        self.engine = engine
        self.fabric = fabric
        self.mac_addr = mac_addr
        self.cpu = HostCpu(engine, cores=cores, rng=rng,
                           jitter_prob=jitter_prob)
        self.netstack = HostNetStack(kernel_bypass=kernel_bypass)
        self.pcie = PcieLink(engine, gen=pcie_gen)
        self.vfpga = Resource(engine, slots=vfpga_slots, name="vfpga")
        self._handlers: Dict[int, Handler] = {}
        #: host-OS permission table: port -> allowed client MACs (None = any)
        self._acl: Dict[int, Optional[Set[str]]] = {}
        self.mux = ReliableMux(
            engine, fabric.transmit, mac_addr, self._on_payload,
            window=HOST_WINDOW, timeout=HOST_TIMEOUT,
            name=f"hosted.{mac_addr}")
        self.requests_served = 0
        self.requests_denied = 0
        self.fpga_busy_cycles = 0  # energy accounting
        fabric.attach(mac_addr, self.mux.deliver_frame)

    def register(self, port: int, handler: Handler,
                 allowed_clients: Optional[Set[str]] = None) -> None:
        if port in self._handlers:
            raise ConfigError(f"port {port} already registered")
        self._handlers[port] = handler
        self._acl[port] = allowed_clients

    # -- datapath -----------------------------------------------------------------

    def _on_payload(self, peer_mac: str, payload: Dict[str, Any]) -> None:
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
        nbytes_in = 64 if not isinstance(body, dict) else int(
            body.get("bytes", 64)
        )
        handler = self._handlers.get(port)
        if handler is None:
            return
        # host-OS permission check (on the CPU, naturally)
        acl = self._acl.get(port)
        if acl is not None and peer_mac not in acl:
            self.requests_denied += 1
            return
        # 1. host network stack processes the request packet
        yield from self.cpu.run(self.netstack.receive_cost(nbytes_in))
        # 2. DMA request data to the FPGA
        yield from self.pcie.dma(max(64, nbytes_in))
        # 3. accelerator computes (one vFPGA slot)
        grant = yield self.vfpga.acquire()
        try:
            cycles, out_body, out_bytes = handler(body)
            self.fpga_busy_cycles += cycles
            yield cycles
        finally:
            self.vfpga.release(grant)
        # 4. DMA the result back to host memory
        yield from self.pcie.dma(max(64, out_bytes))
        # 5. host stack sends the response (no fresh wakeup: the handler
        #    thread is already running on the core)
        yield from self.cpu.run(self.netstack.send_cost(out_bytes),
                                wakeup=False)
        self.requests_served += 1
        yield self.mux.peer(peer_mac).send(
            {"port": port, "data": ("resp", rid, out_body),
             "src_mac": self.mac_addr},
            payload_bytes=out_bytes,
        )

    # -- D3 metrics -----------------------------------------------------------------

    def cpu_cycles_per_request(self) -> float:
        if self.requests_served == 0:
            return 0.0
        return self.cpu.cycles_used / self.requests_served
