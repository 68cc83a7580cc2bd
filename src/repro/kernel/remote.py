"""Remote services: placing OS functionality on a *remote* CPU (§6 Q3).

The paper's third open question: "it may not be worth implementing certain
functionality directly in hardware if it is either rarely used or
exceptionally complex.  Ideally, we could take advantage of the network
capabilities of Apiary and place the service on any remote CPU,
maintaining the ability to use an FPGA independent of its on-node CPU."

Two pieces make that concrete:

* :class:`RemoteServiceProxy` — an accelerator that occupies a tile,
  registers under a service endpoint like any hardware service, and
  forwards every request over ``svc.net`` to a remote host.  Accelerators
  calling the service cannot tell the difference (same shell API, same
  capability checks) — only the latency changes.
* :class:`RemoteCpuServiceHost` — the far end: a CPU server on the
  datacenter fabric running the service in software, paying host-stack and
  CPU-cycle costs from :mod:`repro.net.hoststack`.

The D11 experiment measures the hardware-vs-remote-CPU latency gap, which
is exactly the trade the question asks about.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from repro.accel.base import Accelerator
from repro.hw.resources import ResourceVector
from repro.kernel.message import Message
from repro.net.frame import EthernetFabric
from repro.net.hoststack import HostCpu, HostNetStack
from repro.net.transport import HOST_TIMEOUT, HOST_WINDOW, ReliableMux
from repro.sim import Engine

__all__ = ["RemoteServiceProxy", "RemoteCpuServiceHost"]

#: Handler convention on the remote CPU:
#: handler(op, payload) -> (cpu_cycles, response_payload, response_bytes)
RemoteHandler = Callable[[str, Any], Tuple[int, Any, int]]

#: cores of the remote CPU server; its stack is kernel-bypass (D11)
SERVER_CORES = 2


class RemoteServiceProxy(Accelerator):
    """A tile that *is* a service endpoint but does its work remotely.

    The proxy is tiny in fabric terms (a request forwarder), which is the
    point: the complex/rarely-used logic lives on a CPU somewhere else.
    """

    COST = ResourceVector(logic_cells=9_000, bram_kb=64, dsp_slices=0)
    PRIMITIVES = {"lut_logic": 7_500, "fifo": 4}

    def __init__(self, name: str, remote_mac: str, port: int):
        super().__init__(name)
        self.remote_mac = remote_mac
        self.port = port
        self._pending: Dict[int, Message] = {}
        self.forwarded = 0
        self.completed = 0

    def main(self, shell):
        yield shell.net_bind(self.port)
        while True:
            msg = yield shell.recv()
            if msg.op == "net.rx":
                self._complete(shell, msg)
                continue
            self._pending[msg.mid] = msg
            self.forwarded += 1
            shell.net_post(self.remote_mac, self.port, data=(
                "req", msg.mid, {"op": msg.op, "payload": msg.payload}),
                nbytes=max(64, msg.payload_bytes + 32))

    def _complete(self, shell, envelope: Message) -> None:
        body = envelope.payload
        data = body.get("data")
        if not (isinstance(data, tuple) and data[0] == "resp"):
            return
        _tag, rid, response = data
        request = self._pending.pop(rid, None)
        if request is None:
            return
        self.completed += 1
        shell.answer(request, payload=response.get("payload"),
                     payload_bytes=int(response.get("bytes", 0)),
                     error=bool(response.get("error", False)))


class RemoteCpuServiceHost:
    """A CPU server on the fabric implementing a service in software."""

    def __init__(
        self,
        engine: Engine,
        fabric: EthernetFabric,
        mac_addr: str,
        handler: RemoteHandler,
    ):
        self.engine = engine
        self.fabric = fabric
        self.mac_addr = mac_addr
        self.handler = handler
        self.cpu = HostCpu(engine, cores=SERVER_CORES)
        self.netstack = HostNetStack(kernel_bypass=True)
        self.mux = ReliableMux(
            engine, fabric.transmit, mac_addr, self._on_payload,
            window=HOST_WINDOW, timeout=HOST_TIMEOUT,
            name=f"remote.{mac_addr}")
        self.requests_served = 0
        fabric.attach(mac_addr, self.mux.deliver_frame)

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
        # host stack receives the request
        yield from self.cpu.run(self.netstack.receive_cost(64))
        try:
            cycles, out_payload, out_bytes = self.handler(
                body.get("op"), body.get("payload")
            )
            error = False
        except Exception as err:  # service-level failure -> error response
            cycles, out_payload, out_bytes = 1, str(err), 0
            error = True
        yield from self.cpu.run(cycles, wakeup=False)
        yield from self.cpu.run(self.netstack.send_cost(out_bytes),
                                wakeup=False)
        self.requests_served += 1
        self.mux.peer(peer_mac).send(
            {"port": port,
             "data": ("resp", rid, {"payload": out_payload,
                                    "bytes": out_bytes, "error": error}),
             "src_mac": self.mac_addr},
            payload_bytes=max(64, out_bytes + 32),
        )
