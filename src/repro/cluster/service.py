"""ClusterPortedService: the backend face of a cluster service instance.

Extends :class:`~repro.apps.service.PortedService` with the three things
the front-end speaks beyond the plain ``("req", rid, body)`` convention:

* **batches** — ``("batch", bid, [(rid, body), ...])`` envelopes, served
  in order and answered with one ``("batchresp", bid, [...])`` frame, so
  a busy backend pays one transport round-trip per batch instead of one
  per request;
* **health pings** — ``{"op": "ping"}`` bodies answered without handler
  cost: how the front-end hears again from an instance it marked down;
* **cross-FPGA trace propagation** — a ``"_trace"`` key in the body
  carries ``(trace_id, parent_span)`` across the fabric hop, so the
  backend's service span nests under the front-end's forward span and
  :class:`~repro.obs.index.SpanIndex` reconstructs the cross-FPGA
  critical path.

Unlike the base class (which spawns every request concurrently), requests
are served **sequentially** through one worker loop: an instance models a
fixed piece of fabric with a real service rate, which is what makes the
S1 scaling benchmark measure capacity rather than simulator concurrency.
Replies go out with a ``net_post``: ``svc.net`` sends no answer back, and
transport ACKs never serialize with compute.
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.apps.service import Handler, PortedService

__all__ = ["ClusterPortedService"]


class ClusterPortedService(PortedService):
    """Serves singles, batches, and pings on one port — sequentially."""

    def __init__(self, name: str, port: int, handler: Handler):
        super().__init__(name, port, handler)
        self.batches_served = 0
        self.pings_answered = 0

    def main(self, shell):
        yield shell.net_bind(self.port)
        while True:
            msg = yield shell.recv()
            data = msg.payload.get("data") if msg.op == "net.rx" else None
            if isinstance(data, tuple) and len(data) == 3:
                yield from self._serve_tagged(shell, msg.payload, *data)

    def _serve_tagged(self, shell, envelope, tag, rid, body):
        """Process generator: one ``(tag, rid, body)`` off the port."""
        if tag == "req":
            out_body, out_bytes = yield from self._handle(shell, body)
            shell.net_post(envelope["src_mac"], self.port,
                           data=("resp", rid, out_body), nbytes=out_bytes)
        elif tag == "batch":
            yield from self._serve_batch(shell, envelope, rid, body)

    def _serve_batch(self, shell, envelope, bid, entries):
        self.batches_served += 1
        out = []
        total_bytes = 0
        for rid, body in entries:
            out_body, out_bytes = yield from self._handle(shell, body)
            out.append((rid, out_body, out_bytes))
            total_bytes += out_bytes
        shell.net_post(envelope["src_mac"], self.port,
                       data=("batchresp", bid, out),
                       nbytes=max(64, total_bytes + 16 * len(out)))

    def _handle(self, shell, body: Any) -> Tuple[Any, int]:
        """Process generator: one request body -> (response body, bytes)."""
        if isinstance(body, dict) and body.get("op") == "ping":
            self.pings_answered += 1
            return {"pong": True, "service": self.name}, 16
        span = 0
        spans = shell.spans
        if spans.enabled and isinstance(body, dict):
            trace = body.get("_trace")
            if trace:
                span = spans.open(trace[0], f"backend:{self.name}",
                                  "cluster", shell.name, shell.engine.now,
                                  parent_id=trace[1], port=self.port)
        cycles, out_body, out_bytes = self.handler(body)
        yield from self._work(cycles)
        self.requests_served += 1
        if span:
            spans.close(span, shell.engine.now)
        return out_body, out_bytes
