"""The Apiary shell: the standard, board-independent API of Section 4.3.

"Each module is wrapped in an Apiary shell that interfaces to the fabric
and manages capabilities on the module's behalf."  Accelerator code
programs against this class only — no MAC registers, no DRAM controllers,
no NoC flits — which is precisely the portability claim D10 tests by
running the same accelerator on different simulated boards.

The API (all methods returning events are yielded from accelerator
process generators):

* ``call(dst, op, ...)`` — RPC to any endpoint; correlation handled here.
* ``notify(dst, op, ...)`` — one-way event; ``post`` is the same without
  the admission event, for a sender that never waits on it.
* ``recv()`` / ``reply(msg, ...)``, or ``serve(handler)`` — serve requests.
* ``alloc/free/read/write/grant`` — memory through ``svc.mem``.
* ``net_bind/net_send/net_post`` plus ``net_rx`` events — networking
  through ``svc.net``.
* ``spawn(name, gen)`` — create a child process inside this tile's fault
  domain (the multi-context execution model of Section 4.2/4.4).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.cap.capability import CapabilityRef
from repro.errors import (
    ConfigError,
    DeadlineExceeded,
    ServiceError,
    TileFault,
)
from repro.kernel.message import MemAccess, Message, MessageKind
from repro.kernel.monitor import Monitor
from repro.obs.span import SpanRecorder
from repro.policy import RetryPolicy
from repro.sim import Channel, Engine, Event, Process

__all__ = ["Shell", "AllocatedSegment"]


class AllocatedSegment:
    """What ``alloc`` returns: the capability plus segment metadata."""

    __slots__ = ("cap", "sid", "size")

    def __init__(self, cap: CapabilityRef, sid: int, size: int):
        self.cap = cap
        self.sid = sid
        self.size = size

    def __repr__(self) -> str:  # pragma: no cover
        return f"<AllocatedSegment sid={self.sid} size={self.size}>"


class Shell:
    """One tile's shell.  Created by the Tile; handed to the accelerator."""

    def __init__(self, engine: Engine, monitor: Monitor,
                 mem_service: str = "svc.mem", net_service: str = "svc.net",
                 mids: Optional[Iterator[int]] = None):
        self.engine = engine
        self.monitor = monitor
        #: message-id allocator, shared by every shell of one board (a
        #: free-standing shell numbers its own messages)
        self._mids = mids if mids is not None else itertools.count(1)
        #: this tile's causal-span recorder: the monitor's, shared
        #: system-wide (duck-typed monitor stand-ins without one get a
        #: private disabled recorder)
        spans = getattr(monitor, "spans", None)
        self.spans: SpanRecorder = spans if spans is not None else SpanRecorder()
        self.mem_service = mem_service
        self.net_service = net_service
        self.inbox: Channel = Channel(engine, capacity=None,
                                      name=f"{self.name}.inbox")
        self._pending: Dict[int, Event] = {}
        self._handler: Optional[Callable[[Message], None]] = None  # serve()
        self.incarnation = 0
        self._children: List[Process] = []
        #: ``len(_children)`` at which spawn() next forgets the finished
        self._prune_at = 16
        self.calls_made = 0
        self.calls_failed = 0
        self.calls_timed_out = 0
        self.calls_retried = 0
        monitor.deliver = self._deliver

    @property
    def name(self) -> str:
        return self.monitor.tile_name

    # -- message plumbing ----------------------------------------------------

    def _deliver(self, msg: Message) -> None:
        if msg.kind in (MessageKind.RESPONSE, MessageKind.ERROR):
            waiter = self._pending.pop(msg.mid, None)
            if waiter is None:
                return  # late response after timeout: drop
            if msg.kind == MessageKind.ERROR:
                self.calls_failed += 1
                waiter.fail(ServiceError(str(msg.payload)))
            else:
                waiter.succeed(msg)
        elif self._handler is not None:
            self._handler(msg)
        else:
            self.inbox.try_put(msg)

    def call(
        self,
        dst: str,
        op: str,
        payload: Any = None,
        payload_bytes: int = 0,
        cap: Optional[CapabilityRef] = None,
        timeout: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> Event:
        """RPC: event succeeds with the response :class:`Message`.

        Failure modes: monitor denial (AccessDenied/ServiceUnavailable),
        an ERROR response (ServiceError), or timeout (DeadlineExceeded,
        a ServiceUnavailable subclass).

        With ``retry=RetryPolicy(...)`` the call is retried under that
        policy — on service errors, per-attempt timeouts, and fail-stop
        NACKs, the failure modes a recovering service emits mid-failover —
        and the returned event fails with :class:`DeadlineExceeded` once
        the policy's deadline is spent.  Capability denials (``AccessDenied``)
        propagate immediately: retrying an unauthorized call never helps.  ``timeout`` and ``retry`` are mutually
        exclusive (the policy's ``attempt_timeout`` governs attempts).
        """
        if retry is not None:
            if timeout is not None:
                raise ConfigError(
                    "pass either timeout= or retry= to Shell.call, not both "
                    "(RetryPolicy.attempt_timeout bounds each attempt)"
                )

            def attempt(attempt_timeout: int) -> Event:
                return self.call(dst, op, payload=payload,
                                 payload_bytes=payload_bytes, cap=cap,
                                 timeout=attempt_timeout)

            def count_retry() -> None:
                self.calls_retried += 1

            return retry.drive(
                self.engine, attempt, retry_on=(ServiceError, TileFault),
                describe=f"call {op!r} to {dst!r}", on_retry=count_retry,
                name=f"{self.name}.retry.{op}",
            )
        msg = Message(src=self.name, dst=dst, op=op, mid=next(self._mids),
                      kind=MessageKind.REQUEST, payload=payload,
                      payload_bytes=payload_bytes, cap=cap)
        result = self.engine.event(f"{self.name}.call#{msg.mid}")
        spans = self.spans
        if spans.enabled:
            # root span of the causal trace: covers the whole request,
            # submission to response delivery (= end-to-end latency)
            msg.trace_id = spans.new_trace()
            msg.span_id = spans.open(
                msg.trace_id, f"request:{op}", "request", self.name,
                self.engine.now, dst=dst, op=op, mid=msg.mid)
            root_span = msg.span_id

            def close_root(ev: Event) -> None:
                spans.close(root_span, self.engine.now, failed=ev.failed)

            result.add_callback(close_root)
        self._pending[msg.mid] = result
        self.calls_made += 1

        def refused(error: Exception) -> None:
            if msg.mid in self._pending:
                del self._pending[msg.mid]
                if not result.triggered:
                    result.fail(error)

        def admitted(error: Optional[Exception]) -> None:
            if error is not None:  # the caller hears it one ring hop later
                self.engine.schedule(0, refused, error)

        self.monitor.submit(msg, admitted)
        if timeout is not None:
            def on_timeout(_ev: Event) -> None:
                if msg.mid in self._pending:
                    del self._pending[msg.mid]
                    self.calls_timed_out += 1
                    if not result.triggered:
                        result.fail(DeadlineExceeded(
                            f"call {op!r} to {dst!r} timed out after {timeout}"
                        ))
            self.engine.timeout(timeout).add_callback(on_timeout)
        return result

    def notify(self, dst: str, op: str, payload: Any = None,
               payload_bytes: int = 0,
               cap: Optional[CapabilityRef] = None) -> Event:
        """One-way event; the returned event tracks NoC admission only."""
        return self._admission(Message(
            src=self.name, dst=dst, op=op, mid=next(self._mids),
            kind=MessageKind.EVENT, payload=payload,
            payload_bytes=payload_bytes, cap=cap))

    def post(self, dst: str, op: str, payload: Any = None,
             payload_bytes: int = 0) -> None:
        """:meth:`notify` without the admission event."""
        self.monitor.submit(Message(
            src=self.monitor.tile_name, dst=dst, op=op, mid=next(self._mids),
            kind=MessageKind.EVENT, payload=payload,
            payload_bytes=payload_bytes))

    def _admission(self, msg: Message) -> Event:
        """Submit ``msg``; the event succeeds with it once the NoC has
        admitted it, or fails with the refusal."""
        done = self.engine.event()

        def settle(error: Optional[Exception]) -> None:
            if error is None:
                done.succeed(msg)
            else:
                done.fail(error)

        self.monitor.submit(msg, settle)
        return done

    def recv(self) -> Event:
        """Next incoming request/event for this tile."""
        return self.inbox.get()

    def serve(self, handler: Callable[[Message], None]) -> None:
        """Hand each request/event to ``handler(msg)`` on delivery, not to
        :meth:`recv` (those queued go first): a service needs no process."""
        self._handler = handler
        while self.inbox:
            handler(self.inbox.try_get()[1])

    def stop_serving(self) -> None:
        """Fail-stop: back to :meth:`recv`, and a new :attr:`incarnation`
        (a reply an earlier one owes is never sent)."""
        self._handler = None
        self.incarnation += 1

    # -- service-side causal tracing -----------------------------------------

    def span_open(self, msg: Message, name: str, **detail: Any) -> int:
        """Open a child span for handling ``msg`` (0 when untraced).

        Reparents the message under the new span, so downstream work this
        handler causes — DRAM access, the reply's egress/transit — nests
        beneath it in the reconstructed tree.  Zero-cost when tracing is
        disabled, like every span emit path.
        """
        spans = self.spans
        if not spans.enabled or not msg.trace_id:
            return 0
        span = spans.open(msg.trace_id, name, "service", self.name,
                          self.engine.now, parent_id=msg.span_id,
                          mid=msg.mid, **detail)
        msg.span_id = span
        return span

    def span_close(self, span: int, **detail: Any) -> None:
        """Close a span from :meth:`span_open` (no-op for 0)."""
        if span:
            self.spans.close(span, self.engine.now, **detail)

    def reply(self, request: Message, payload: Any = None,
              payload_bytes: int = 0, error: bool = False) -> Event:
        return self._admission(request.make_response(
            payload=payload, payload_bytes=payload_bytes, error=error))

    # -- memory convenience API (over svc.mem) -----------------------------------

    def alloc(self, size: int, label: str = "") -> Event:
        """Allocate a segment; succeeds with :class:`AllocatedSegment`."""
        result = self.engine.event(f"{self.name}.alloc")
        call = self.call(self.mem_service, "mem.alloc",
                         payload={"size": size, "label": label})

        def done(ev: Event) -> None:
            if result.triggered:
                return
            if ev.failed:
                result.fail(ev.value)
            else:
                body = ev.value.payload
                result.succeed(AllocatedSegment(
                    cap=body["cap"], sid=body["sid"], size=body["size"],
                ))

        call.add_callback(done)
        return result

    def free(self, seg: AllocatedSegment) -> Event:
        return self.call(self.mem_service, "mem.free", payload={"sid": seg.sid},
                         cap=seg.cap)

    def mem_write(self, seg: AllocatedSegment, offset: int, data: Any,
                  nbytes: int) -> Event:
        return self.call(self.mem_service, "mem.write",
                         payload=MemAccess(offset=offset, nbytes=nbytes,
                                           data=data),
                         payload_bytes=nbytes, cap=seg.cap)

    def mem_read(self, seg: AllocatedSegment, offset: int, nbytes: int) -> Event:
        """Succeeds with the response message; ``payload`` holds the data."""
        return self.call(self.mem_service, "mem.read",
                         payload=MemAccess(offset=offset, nbytes=nbytes),
                         cap=seg.cap)

    def grant(self, seg: AllocatedSegment, to_tile: str, rights: Any) -> Event:
        """Share a segment with another tile (composition, Section 2)."""
        return self.call(self.mem_service, "mem.grant",
                         payload={"to": to_tile, "rights": rights},
                         cap=seg.cap)

    # -- network convenience API (over svc.net) -------------------------------------

    def net_bind(self, port: int) -> Event:
        return self.call(self.net_service, "net.bind", payload={"port": port})

    def net_send(self, dst_mac: str, port: int, data: Any, nbytes: int) -> Event:
        return self.call(self.net_service, "net.send",
                         payload={"dst_mac": dst_mac, "port": port,
                                  "data": data, "nbytes": nbytes},
                         payload_bytes=nbytes)

    def net_post(self, dst_mac: str, port: int, data: Any, nbytes: int) -> None:
        """:meth:`net_send` with no answer: ``svc.net`` transmits it and
        replies nothing."""
        self.post(self.net_service, "net.post",
                  payload={"dst_mac": dst_mac, "port": port, "data": data,
                           "nbytes": nbytes},
                  payload_bytes=nbytes)

    # -- multi-context execution ---------------------------------------------------

    def spawn(self, name: str, generator) -> Process:
        """Run a child process inside this tile's fault domain."""
        proc = self.engine.process(generator, name=f"{self.name}.{name}")
        children = self._children
        if len(children) >= self._prune_at:
            # amortised (the list must double first), and no engine event
            # or `done` callback: a finished child is simply forgotten
            children[:] = [child for child in children if child.alive]
            self._prune_at = max(16, 2 * len(children))
        children.append(proc)
        return proc

    @property
    def children(self) -> List[Process]:
        return list(self._children)
