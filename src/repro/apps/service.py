"""PortedService: expose any handler as a network-facing Apiary service.

Bridges the datacenter RPC convention (``("req", rid, body)`` over a bound
port) onto an accelerator handler, so the *same handler function* can be
deployed on Apiary, on the hosted baseline and on the bare baseline — the
property that makes D1-D3 apples-to-apples.

Handler convention (shared with :mod:`repro.baselines`):
``handler(body) -> (compute_cycles, response_body, response_bytes)``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.accel.base import Accelerator
from repro.errors import TileFault
from repro.hw.resources import ResourceVector

__all__ = ["PortedService", "echo_handler_factory", "kv_handler_factory"]

Handler = Callable[[Any], Tuple[int, Any, int]]


def echo_handler_factory(work_cycles: int):
    """A CPU-bound echo service: every request costs ``work_cycles``."""

    def make():
        def handler(body):
            return work_cycles, {"echo": body.get("x") if isinstance(body, dict) else None}, 64
        return handler

    return make


def kv_handler_factory(work_cycles: int):
    """A tiny per-shard key-value store (get/put)."""

    def make(shard: int):
        store: Dict[Any, Any] = {}

        def handler(body):
            op = body.get("op")
            if op == "put":
                store[body["key"]] = body["value"]
                return work_cycles, {"ok": True, "shard": shard}, 32
            if op == "get":
                return work_cycles, {"ok": body["key"] in store,
                                     "value": store.get(body["key"]),
                                     "shard": shard}, 64
            return work_cycles, {"ok": False, "error": f"bad op {op!r}"}, 32

        return handler

    return make


class PortedService(Accelerator):
    """Serves datacenter RPCs arriving through ``svc.net`` on one port."""

    COST = ResourceVector(logic_cells=60_000, bram_kb=512, dsp_slices=8)
    PRIMITIVES = {"lut_logic": 48_000, "bram": 128}

    def __init__(self, name: str, port: int, handler: Handler):
        super().__init__(name)
        self.port = port
        self.handler = handler
        self.requests_served = 0

    def main(self, shell):
        yield shell.net_bind(self.port)
        while True:
            msg = yield shell.recv()
            if msg.op != "net.rx":
                continue
            body = msg.payload
            data = body.get("data")
            if not (isinstance(data, tuple) and data[0] == "req"):
                continue
            shell.spawn(f"req{data[1]}", self._serve(shell, body, data))

    def _serve(self, shell, envelope, data):
        _tag, rid, body = data
        cycles, out_body, out_bytes = self.handler(body)
        yield from self._work(cycles)
        self.requests_served += 1
        yield shell.net_send(envelope["src_mac"], self.port,
                             data=("resp", rid, out_body), nbytes=out_bytes)
