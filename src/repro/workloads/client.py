"""A remote client host on the datacenter fabric.

Models the *caller* side of a microservice RPC: a host somewhere in the
datacenter issuing requests to an accelerated service, over the same
reliable transport every system under test uses.  Collects per-request
latency into a histogram — the raw material of D1/D2.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional

from repro.errors import DeadlineExceeded
from repro.net.frame import EthernetFabric
from repro.net.transport import HOST_TIMEOUT, HOST_WINDOW, ReliableMux
from repro.sim import Engine, Event, Histogram

__all__ = ["RemoteClientHost"]


class RemoteClientHost:
    """A fabric endpoint that issues port-addressed requests.

    The request payload format matches what the Apiary network service and
    the baseline systems deliver: ``{"port", "data", "src_mac"}`` with an
    application-level ``("req", rid, body)`` / ``("resp", rid, body)``
    convention handled here.
    """

    def __init__(self, engine: Engine, fabric: EthernetFabric, mac: str):
        self.engine = engine
        self.fabric = fabric
        self.mac = mac
        self.mux = ReliableMux(
            engine, fabric.transmit, mac, self._on_payload,
            window=HOST_WINDOW, timeout=HOST_TIMEOUT, name=f"client.{mac}")
        self._rid = itertools.count(1)
        self._pending: Dict[int, Event] = {}
        self.latency = Histogram(f"{mac}.latency")
        self.requests_sent = 0
        self.responses_received = 0
        self.timeouts = 0
        fabric.attach(mac, self.mux.deliver_frame)

    def _on_payload(self, _peer_mac: str, payload: Dict[str, Any]) -> None:
        data = payload.get("data")
        if not (isinstance(data, tuple) and len(data) == 3
                and data[0] == "resp"):
            return
        _tag, rid, body = data
        waiter = self._pending.pop(rid, None)
        if waiter is not None and not waiter.triggered:
            self.responses_received += 1
            waiter.succeed(body)

    def request(self, peer_mac: str, port: int, body: Any,
                nbytes: int = 64, timeout: Optional[int] = None) -> Event:
        """Send one request; the event succeeds with the response body,
        or fails with :class:`~repro.errors.DeadlineExceeded` once
        ``timeout`` cycles pass without one."""
        rid = next(self._rid)
        done = self.engine.event(f"{self.mac}.req#{rid}")
        self._pending[rid] = done
        self.requests_sent += 1
        endpoint = self.mux.peer(peer_mac)
        endpoint.send({"port": port, "data": ("req", rid, body),
                       "src_mac": self.mac}, payload_bytes=nbytes)
        if timeout is not None:
            def expire(_ev) -> None:
                if rid in self._pending:
                    del self._pending[rid]
                    self.timeouts += 1
                    if not done.triggered:
                        done.fail(DeadlineExceeded(f"request {rid} timed out"))
            self.engine.timeout(timeout).add_callback(expire)
        return done

    def closed_loop(self, peer_mac: str, port: int, bodies: List[Any],
                    nbytes: int = 64, timeout: Optional[int] = None):
        """Process generator: one request at a time, recording latencies."""
        for body in bodies:
            start = self.engine.now
            try:
                yield self.request(peer_mac, port, body, nbytes=nbytes,
                                   timeout=timeout)
            except DeadlineExceeded:
                continue  # timeout recorded; latency not
            self.latency.record(self.engine.now - start)
