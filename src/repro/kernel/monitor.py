"""The per-tile Apiary monitor — the trusted core of the microkernel.

Section 4.1: "The Apiary monitor serves [as] an accelerator's interface to
the OS, so all messages go through it."  Everything the paper asks of the
monitor lives here:

* **Name resolution** (§4.3): a local table mapping logical endpoint names
  to physical tiles, maintained by the management plane.
* **Capability enforcement** (§4.5/4.6): every egress message needs a SEND
  capability for its destination; memory operations additionally pass the
  segment-protection unit.
* **Rate limiting** (§4.5): a token bucket on the injection path.
* **Fail-stop drain** (§4.4): "draining all outgoing or incoming messages
  and returning an error to any accelerator that tries to communicate with
  it."
* **Cost accounting** (§6 Q1): every interposition charges cycles, and the
  monitor reports its logic-cell footprint for the overhead experiments.

The monitor can also run with ``enforce=False`` (all checks skipped, zero
added cycles) — the A2 ablation's "no OS" configuration.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.cap.captable import CapabilityStore
from repro.errors import (
    AccessDenied,
    CapabilityError,
    ProtocolError,
    SegmentFault,
    ServiceUnavailable,
    TileFault,
)
from repro.hw.resources import ResourceVector, monitor_cost
from repro.kernel.message import (
    MESSAGE_HEADER_BYTES,
    MemAccess,
    Message,
    MessageKind,
)
from repro.mem.protection import SegmentProtectionUnit
from repro.mem.segment import SegmentTable
from repro.noc.flit import Packet, flits_for_bytes
from repro.noc.network import NetworkInterface
from repro.noc.qos import RateMeter, TokenBucket
from repro.obs.span import SpanRecorder
from repro.sim import Engine, StatsRegistry

__all__ = ["Monitor", "MONITOR_EGRESS_CYCLES", "MONITOR_INGRESS_CYCLES"]

#: Cycles one egress interposition costs (cap lookup + name table + policy).
MONITOR_EGRESS_CYCLES = 2
#: Cycles one ingress interposition costs.
MONITOR_INGRESS_CYCLES = 1

#: a submitter's completion callable: ``None`` = admitted, else the refusal
Done = Callable[[Optional[Exception]], None]


class Monitor:
    """One tile's monitor, sitting between the accelerator and the NoC."""

    def __init__(
        self,
        engine: Engine,
        tile_name: str,
        ni: NetworkInterface,
        caps: CapabilityStore,
        segments: SegmentTable,
        name_table: Dict[str, int],
        enforce: bool = True,
        rate_limit_flits_per_cycle: Optional[float] = None,
        rate_limit_burst: int = 32,
        cap_table_size: int = 64,
        stats: Optional[StatsRegistry] = None,
        spans: Optional[SpanRecorder] = None,
    ):
        self.engine = engine
        self.tile_name = tile_name
        self.ni = ni
        self.caps = caps
        self.name_table = name_table  # shared dict, owned by the mgmt plane
        self.enforce = enforce
        self.spu = SegmentProtectionUnit(caps, segments, holder=tile_name)
        self.stats = stats if stats is not None else StatsRegistry()
        self.spans = spans if spans is not None else ni.network.spans
        self.drained = False
        self.cap_table_size = cap_table_size
        self.bucket: Optional[TokenBucket] = None
        if rate_limit_flits_per_cycle is not None:
            self.bucket = TokenBucket(
                rate_per_cycle=rate_limit_flits_per_cycle,
                burst=rate_limit_burst,
                start_time=engine.now,
            )
        #: the egress pipeline: the one message past its policy checks —
        #: ``(msg, on_done, span, dst tile)``, in its interposition delay,
        #: a rate-limit wait or its injection — and those behind it
        self._egress_msg: Optional[tuple] = None
        self._egress_queue: Deque[Tuple[Message, Optional[Done]]] = deque()
        #: the ingress pipeline: whether a message is in its interposition
        #: delay, and the messages the interface handed over behind it
        self._ingress_busy = False
        self._ingress_queue: Deque[Message] = deque()
        #: delivery callback into the shell; set by the Shell at attach time
        self.deliver: Optional[Callable[[Message], None]] = None
        self.messages_sent = 0
        self.messages_received = 0
        self.denials = 0
        self.nacks_sent = 0
        # per-message stat handles, resolved once at construction — the
        # egress/ingress loops run per message and must not pay a
        # string-keyed (or f-string-building) registry lookup each time
        self._ctr_denials = self.stats.counter(f"{tile_name}.denials")
        self._ctr_sent = self.stats.counter("monitor.messages_sent")
        self._ctr_received = self.stats.counter("monitor.messages_received")
        #: sliding-window traffic meters — the "debugging and tracing
        #: support at the message passing layer" the design goals promise
        self.tx_meter = RateMeter(window_cycles=10_000, buckets=10)
        self.rx_meter = RateMeter(window_cycles=10_000, buckets=10)
        ni.receiver = self._receive

    def set_rate_limit(self, flits_per_cycle: Optional[float],
                       burst: int = 32) -> None:
        """Install/replace/remove this tile's injection rate limit.

        Management-plane policy knob (Section 4.5): operators can throttle
        a misbehaving tenant without touching anyone else's monitor.
        """
        if flits_per_cycle is None:
            self.bucket = None
            return
        self.bucket = TokenBucket(
            rate_per_cycle=flits_per_cycle, burst=burst,
            start_time=self.engine.now,
        )

    @property
    def egress_backlog(self) -> int:
        """Messages queued for transmission but not yet on the wire.

        The public read for telemetry: samplers observe the monitor
        without touching its internal queue.
        """
        return len(self._egress_queue)

    def telemetry(self) -> Dict[str, float]:
        """One tile's live traffic/health snapshot for the operator plane.

        ``tx_flits_per_cycle`` is measured over the last 10k cycles, so a
        flooding tenant stands out immediately (see
        ``MgmtPlane.police_rates``).
        """
        now = self.engine.now
        return {
            "tile": self.tile_name,
            "messages_sent": float(self.messages_sent),
            "messages_received": float(self.messages_received),
            "denials": float(self.denials),
            "nacks_sent": float(self.nacks_sent),
            "drained": float(self.drained),
            "tx_flits_per_cycle": self.tx_meter.rate(now),
            "rx_msgs_per_cycle": self.rx_meter.rate(now),
            "rate_limited": float(self.bucket is not None),
        }

    # -- cost reporting (D4 / A2) ---------------------------------------------

    def logic_cost(self) -> ResourceVector:
        return monitor_cost(
            cap_table_size=self.cap_table_size,
            service_table_size=max(16, len(self.name_table)),
            rate_limited=self.bucket is not None,
        )

    # -- egress -----------------------------------------------------------------

    def submit(self, msg: Message, on_done: Optional[Done] = None) -> None:
        """Accelerator-side entry.  ``on_done(error)``, if given, is called
        once: with ``None`` in the call that admits the whole message to
        the NoC, or with the denial (or the fail-stop's ``TileFault``) in
        the call that refuses it — possibly this one."""
        if self.drained:
            if on_done is not None:
                on_done(TileFault(f"{self.tile_name} is fail-stopped"))
            return
        msg.src = self.tile_name  # monitors stamp identity; no spoofing
        if self._egress_msg is None:
            self._egress_start(msg, on_done)
        else:
            self._egress_queue.append((msg, on_done))

    def _egress_start(self, msg: Message, on_done: Optional[Done]) -> None:
        """The message at the head of the pipeline meets egress policy: it
        is denied on the spot, or enters its interposition delay."""
        spans = self.spans
        span = 0
        if spans.enabled and msg.trace_id:
            span = spans.open(msg.trace_id, "monitor.egress", "monitor",
                              self.tile_name, self.engine.now,
                              parent_id=msg.span_id, mid=msg.mid,
                              op=msg.op, dst=msg.dst)
        try:
            dst_tile = self._check_egress(msg)
        except (AccessDenied, CapabilityError, ServiceUnavailable,
                ProtocolError, SegmentFault) as err:
            self.denials += 1
            self._ctr_denials.inc()
            spans.event(self.engine.now, "monitor.deny",
                        self.tile_name, dst=msg.dst, op=msg.op,
                        reason=type(err).__name__)
            if span:
                spans.close(span, self.engine.now,
                            denied=type(err).__name__)
            if on_done is not None:
                on_done(err)
            return
        self._egress_msg = (msg, on_done, span, dst_tile)
        if self.enforce:
            self.engine.schedule(MONITOR_EGRESS_CYCLES, self._egress_loop)
        else:
            self._egress_loop()

    def _egress_loop(self, injected: Optional[Packet] = None) -> None:
        """The egress machine's one engine entry point.  ``None``: the
        interposition delay, or a rate-limit wait, is over — inject, or
        wait for tokens (again).  The packet (the interface's call when it
        is in): the whole message is in the NoC — account it, tell the
        sender, start the next."""
        msg, on_done, span, dst_tile = self._egress_msg
        now = self.engine.now
        if injected is None:
            wire_bytes = MESSAGE_HEADER_BYTES + msg.payload_bytes
            bucket = self.bucket
            if bucket is not None:
                size_flits = flits_for_bytes(wire_bytes,
                                             self.ni.network.flit_bytes)
                wait = bucket.cycles_until(now, size_flits)
                if wait > 0:
                    self.engine.schedule(wait, self._egress_loop)
                    return
                bucket.consume(now, size_flits)
            msg.sent_at = now
            self.ni.inject(dst_tile, msg, wire_bytes,
                           on_injected=self._egress_loop)
            return
        size_flits = injected.size_flits
        self.messages_sent += 1
        self.tx_meter.record(now, size_flits)
        self._ctr_sent.value += 1
        if span:
            self.spans.close(span, now, flits=size_flits)
        self._egress_msg = None
        if on_done is not None:
            on_done(None)
        queue = self._egress_queue
        while queue and self._egress_msg is None:  # a denial leaves it idle
            self._egress_start(*queue.popleft())

    def _check_egress(self, msg: Message) -> int:
        """All egress policy; returns the destination tile id."""
        dst_tile = self.name_table.get(msg.dst)
        if dst_tile is None:
            raise ServiceUnavailable(f"no endpoint named {msg.dst!r}")
        if not self.enforce:
            return dst_tile
        # responses/errors flow back without a SEND cap: the request was
        # authorized, and peers must be able to receive their answers.
        if msg.kind in (MessageKind.RESPONSE, MessageKind.ERROR):
            return dst_tile
        # the tile must hold SEND for the destination endpoint
        if not self.caps.may_send(self.tile_name, msg.dst):
            raise AccessDenied(
                f"{self.tile_name} holds no SEND capability for {msg.dst!r}"
            )
        if msg.op in ("mem.read", "mem.write") and isinstance(msg.payload, MemAccess):
            if msg.cap is None:
                raise AccessDenied(f"{msg.op} without a memory capability")
            self.spu.check(
                msg.cap,
                offset=msg.payload.offset,
                nbytes=msg.payload.nbytes,
                is_write=(msg.op == "mem.write"),
            )
        return dst_tile

    # -- ingress ----------------------------------------------------------------

    def _receive(self, pkt: Packet) -> None:
        """The interface's receiver: a reassembled packet enters the
        ingress pipeline, or waits behind the message in it."""
        msg = pkt.payload
        if not isinstance(msg, Message):
            return  # stray traffic; monitors only speak Message
        if self._ingress_busy:
            self._ingress_queue.append(msg)
        else:
            self._ingress_start(msg)

    def _ingress_start(self, msg: Message) -> None:
        """The message at the head of the pipeline enters its
        interposition delay (``enforce=False``: is delivered at once)."""
        span = 0
        if self.spans.enabled and msg.trace_id:
            span = self.spans.open(msg.trace_id, "monitor.ingress", "monitor",
                                   self.tile_name, self.engine.now,
                                   parent_id=msg.span_id, mid=msg.mid,
                                   op=msg.op)
        if self.enforce:
            self._ingress_busy = True
            self.engine.schedule(MONITOR_INGRESS_CYCLES, self._ingress_loop,
                                 (msg, span))
        else:
            self._ingress_loop((msg, span))

    def _ingress_loop(self, arg: Tuple[Message, int]) -> None:
        """The ingress machine's one engine entry point: the ``(message,
        span)`` whose interposition delay is over is delivered to the
        shell — NACKed if the tile was drained meanwhile — and the next
        waiting message enters its delay."""
        msg, span = arg
        spans = self.spans
        if self.drained:
            if span:
                spans.close(span, self.engine.now, nacked=True)
            self._nack(msg)
        else:
            self.messages_received += 1
            self.rx_meter.record(self.engine.now)
            self._ctr_received.value += 1
            if self.deliver is not None:
                self.deliver(msg)
            if span:
                spans.close(span, self.engine.now)
        self._ingress_busy = False
        if self._ingress_queue:
            self._ingress_start(self._ingress_queue.popleft())

    def _nack(self, msg: Message) -> None:
        """Fail-stop semantics: reject communication with a drained tile."""
        if msg.kind != MessageKind.REQUEST:
            return  # never NACK responses/events: no error loops
        self.nacks_sent += 1
        error = msg.make_response(
            payload=f"{self.tile_name} is fail-stopped", error=True
        )
        error.src = self.tile_name
        dst_tile = self.name_table.get(error.dst)
        if dst_tile is None:
            return
        self.spans.event(self.engine.now, "monitor.nack", self.tile_name,
                         to=error.dst, mid=error.mid)
        # trusted path: NACKs bypass the egress queue and rate limiter so a
        # drained tile cannot be wedged by its own policy state
        self.ni.inject(dst_tile, error, error.wire_bytes)

    # -- fault handling hooks (§4.4) -----------------------------------------------

    def drain(self) -> None:
        """Enter fail-stop: outgoing queue is flushed with errors, future
        ingress requests are NACKed, future submits fail."""
        if self.drained:
            return
        self.drained = True
        self.spans.event(self.engine.now, "monitor.drain", self.tile_name)
        self.stats.counter("monitor.drains").inc()
        while self._egress_queue:
            _msg, on_done = self._egress_queue.popleft()
            if on_done is not None:
                on_done(TileFault(f"{self.tile_name} drained"))

    def undrain(self) -> None:
        """Leave fail-stop after the slot is reloaded with a fresh bitstream."""
        self.drained = False
        self.spans.event(self.engine.now, "monitor.undrain", self.tile_name)
