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
are served **sequentially**, in arrival order: an instance models a fixed
piece of fabric with a real service rate, which is what makes the S1
scaling benchmark measure capacity rather than simulator concurrency.
The service is a :meth:`~repro.kernel.shell.Shell.serve` callback with a
FIFO of the messages not yet answered; an entry's compute is one engine
timer, and the next entry starts when it fires.  Replies go out with a
``net_post``: ``svc.net`` sends no answer back, and transport ACKs never
serialize with compute.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.apps.service import Handler, PortedService
from repro.errors import ReproError

__all__ = ["ClusterPortedService"]


class ClusterPortedService(PortedService):
    """Serves singles, batches, and pings on one port — sequentially."""

    def __init__(self, name: str, port: int, handler: Handler):
        super().__init__(name, port, handler)
        self.batches_served = 0
        self.pings_answered = 0
        #: the tagged messages not yet answered, the one in service first:
        #: ``[src_mac, tag, id, entries, answers so far]``
        self._fifo: Deque[list] = deque()

    def main(self, shell):
        yield shell.net_bind(self.port)
        self._fifo.clear()  # what a fail-stopped incarnation left unserved
        shell.serve(self._on_message)

    def _on_message(self, msg) -> None:
        """The shell's delivery callback: queue a ``req`` or a ``batch``,
        and serve it now if nothing is ahead of it."""
        data = msg.payload.get("data") if msg.op == "net.rx" else None
        if not (isinstance(data, tuple) and len(data) == 3):
            return
        tag, ident, body = data
        if tag == "req":
            entries = ((ident, body),)
        elif tag == "batch":
            entries = body
        else:
            return
        self._fifo.append([msg.payload["src_mac"], tag, ident, entries, []])
        if len(self._fifo) == 1:
            self._serve()

    def _serve(self) -> None:
        """Serve the FIFO from its head's next entry until an entry takes
        cycles (its timer resumes here) or nothing is left.  A fault the
        handler or the compute raises is the tile's, as in its guarded
        ``main``."""
        shell = self.shell
        fifo = self._fifo
        try:
            while fifo:
                src_mac, tag, ident, entries, out = fifo[0]
                if tag == "batch" and not out:
                    self.batches_served += 1
                while len(out) < len(entries):
                    rid, body = entries[len(out)]
                    if isinstance(body, dict) and body.get("op") == "ping":
                        self.pings_answered += 1
                        out.append((rid, {"pong": True, "service": self.name},
                                    16))
                        continue
                    span = 0
                    spans = shell.spans
                    if spans.enabled and isinstance(body, dict):
                        trace = body.get("_trace")
                        if trace:
                            span = spans.open(
                                trace[0], f"backend:{self.name}", "cluster",
                                shell.name, shell.engine.now,
                                parent_id=trace[1], port=self.port)
                    cycles, out_body, out_bytes = self.handler(body)
                    shell.engine.schedule(
                        self._charge(cycles), self._entry_done,
                        (shell.incarnation, span, rid, out_body, out_bytes))
                    return
                fifo.popleft()
                if tag == "req":
                    _rid, out_body, out_bytes = out[0]
                    shell.net_post(src_mac, self.port,
                                   data=("resp", ident, out_body),
                                   nbytes=out_bytes)
                else:
                    nbytes = 0
                    for _rid, _body, entry_bytes in out:
                        nbytes += entry_bytes + 16
                    shell.net_post(
                        src_mac, self.port, data=("batchresp", ident, out),
                        nbytes=max(64, nbytes))
        except ReproError as err:
            self.tile.fault_manager.report(self.tile, "main", err)

    def _entry_done(self, arg: Any) -> None:
        """The entry in service has had its cycles: record its answer and
        serve on — unless the tile fail-stopped since it began."""
        incarnation, span, rid, out_body, out_bytes = arg
        shell = self.shell
        if shell.incarnation != incarnation:
            return
        self.requests_served += 1
        if span:
            shell.spans.close(span, shell.engine.now)
        self._fifo[0][4].append((rid, out_body, out_bytes))
        self._serve()
