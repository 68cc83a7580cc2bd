"""The assembled NoC: routers, links, and per-node network interfaces.

:class:`Network` builds one router per topology node, wires neighbouring
routers with latency links, and exposes a :class:`NetworkInterface` (NI)
per node.  The NI is what an Apiary tile's monitor talks to: it packetizes
payloads into flits, injects them with credit flow control, reassembles
arriving flits into packets, and applies ejection backpressure when the
receiver is slow — which is exactly the pressure point the flood/QoS
experiments (D5) exercise.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.errors import ConfigError, RouteError
from repro.noc.flit import DEFAULT_FLIT_BYTES, Flit, Packet, flits_for_bytes
from repro.noc.router import TICK, Router
from repro.noc.routing import RoutingFunction, XYRouting
from repro.noc.topology import Mesh2D, Port, Torus2D
from repro.obs.span import SpanRecorder
from repro.sim import Channel, Engine, Event, Histogram, StatsRegistry

__all__ = ["Network", "NetworkInterface"]


class NetworkInterface:
    """The tile-side endpoint of the NoC.

    Sending::

        yield ni.send(dst=5, payload=msg, payload_bytes=64)   # blocks until
                                                              # fully injected

    Receiving::

        pkt = yield ni.recv()        # blocks until a packet is reassembled
    """

    def __init__(self, network: "Network", node: int):
        self.network = network
        self.node = node
        self.engine = network.engine
        self._spans = network.spans
        self._router = network.router(node)
        num_vcs = network.num_vcs
        depth = network.buffer_depth
        self.name = f"ni{node}"

        # injection side: credits for the router's LOCAL input buffers
        self._inject_credits = [depth] * num_vcs
        self._inject_queue: Channel = Channel(
            self.engine, capacity=network.inject_queue_depth,
            name=f"{self.name}.inject",
        )
        #: the packet being injected: its completion event, the flits not
        #: yet in the router, and the VCs its class may use
        self._inject_pkt: Optional[Packet] = None
        self._inject_done: Optional[Event] = None
        self._inject_flits: Deque[Flit] = deque()
        self._inject_vcs: List[int] = []
        #: the injector is parked until a credit for the router's LOCAL
        #: input returns (any other credit leaves it alone)
        self._awaiting_credit = False
        #: VC chosen by the current packet's head flit; body/tail flits of
        #: the same packet must follow it (wormhole continuity)
        self._current_vc: Optional[int] = None

        # ejection side: reassembly and delivery
        self._eject_buffer: Deque[Flit] = deque()
        #: the ejector is parked on an empty ejection buffer
        self._awaiting_flit = True
        #: the tail flit whose packet the delivery channel has yet to accept
        self._eject_tail: Optional[Flit] = None
        self._partial: Dict[int, int] = {}  # pid -> flits seen
        self.delivered: Channel = Channel(
            self.engine, capacity=network.delivery_queue_depth,
            name=f"{self.name}.delivered",
        )
        self.packets_sent = 0
        self.packets_received = 0
        #: fault injection: packets handed to the NI before this cycle are
        #: silently discarded (the sender sees a successful injection, the
        #: packet never traverses the fabric — a lossy physical link).
        self.drop_until = 0
        self.packets_dropped = 0
        self._inject_queue.get().add_callback(self._injector)

    # -- public API --------------------------------------------------------

    def send(
        self,
        dst: int,
        payload: Any = None,
        payload_bytes: int = 0,
        vc_class: int = 0,
    ) -> Event:
        """Queue a payload for ``dst``; event succeeds with the Packet once
        the *whole packet* has been injected into the router."""
        pkt = self.network.make_packet(
            src=self.node, dst=dst, payload=payload,
            payload_bytes=payload_bytes, vc_class=vc_class,
        )
        return self.send_packet(pkt)

    def send_packet(self, pkt: Packet) -> Event:
        if pkt.src != self.node:
            raise RouteError(f"packet src {pkt.src} != NI node {self.node}")
        done = self.engine.event(f"{self.name}.send#{pkt.pid}")
        queued = self._inject_queue.put((pkt, done))
        if queued.failed:  # pragma: no cover - inject queue never closes
            raise ConfigError("inject queue closed")
        return done

    def try_send_packet(self, pkt: Packet) -> Optional[Event]:
        """Non-blocking variant: ``None`` when the injection queue is full."""
        if self._inject_queue.full:
            return None
        done = self.engine.event(f"{self.name}.send#{pkt.pid}")
        if not self._inject_queue.try_put((pkt, done)):
            return None
        return done

    def recv(self) -> Event:
        """Event that succeeds with the next fully reassembled packet."""
        return self.delivered.get()

    @property
    def inject_backlog(self) -> int:
        return len(self._inject_queue)

    def drop_for(self, cycles: int) -> None:
        """Open a loss window: packets injected during it vanish silently.

        Drops happen at injection time, never mid-flight — dropping flits
        inside the fabric would corrupt the credit protocol and wormhole
        reassembly, which real NoCs guarantee against; what fails in the
        field is the tile-to-NoC interface, modelled here.
        """
        self.drop_until = max(self.drop_until, self.engine.now + cycles)

    # -- router-facing callbacks (wired by Network) --------------------------

    def _local_credit(self, vc: int) -> None:
        self._inject_credits[vc] += 1
        if self._awaiting_credit:
            self._awaiting_credit = False
            self.engine.schedule(0, self._injector)

    def _accept_flit(self, flit: Flit) -> None:
        self._eject_buffer.append(flit)
        if self._awaiting_flit:
            self._awaiting_flit = False
            self.engine.schedule(0, self._ejector)

    # -- state machines ------------------------------------------------------

    def _injector(self, arg=None) -> None:
        """Drain the injection queue, one packet at a time, flit by flit.

        One flit enters the router per cycle at most (link width), and only
        when a credit for the chosen LOCAL-input VC is available.  ``arg``
        says why the step runs: the injection queue's ``get`` event carries
        the next packet, :data:`TICK` is the cycle after a flit went in
        (deferred through the ring), ``None`` that deferred step or a
        returned credit.
        """
        engine = self.engine
        if arg is TICK:
            engine.schedule(0, self._injector)
            return
        if arg is not None and not self._start_packet(*arg.value):
            self._inject_queue.get().add_callback(self._injector)
            return
        flits = self._inject_flits
        if flits:
            flit = flits[0]
            vc = self._pick_credit_vc(self._inject_vcs, flit)
            if vc is None:
                self._awaiting_credit = True
                return
            flits.popleft()
            flit.vc = vc
            self._inject_credits[vc] -= 1
            self._router.accept_flit(Port.LOCAL, flit)
            engine.schedule(1, self._injector, TICK)
            return
        self.packets_sent += 1
        self.network._ctr_injected.inc()
        self._inject_done.succeed(self._inject_pkt)
        self._inject_queue.get().add_callback(self._injector)

    def _start_packet(self, pkt: Packet, done: Event) -> bool:
        """Stage ``pkt`` for injection; ``False`` if a loss window ate it."""
        now = self.engine.now
        if now < self.drop_until:
            self.packets_dropped += 1
            self.network._ctr_dropped.inc()
            done.succeed(pkt)  # sender saw a clean injection; data is gone
            return False
        pkt.injected_at = now
        if self._spans.enabled:
            # causal tracing: a traced message opens a noc.transit span
            # covering injection start -> tail delivery at the far NI
            tid = getattr(pkt.payload, "trace_id", 0)
            if tid:
                pkt.trace_id = tid
                pkt.span_id = self._spans.open(
                    tid, "noc.transit", "noc", self.name, now,
                    parent_id=getattr(pkt.payload, "span_id", 0),
                    pid=pkt.pid, src=pkt.src, dst=pkt.dst,
                    flits=pkt.size_flits,
                )
        self._inject_pkt = pkt
        self._inject_done = done
        self._inject_flits.extend(pkt.make_flits())
        self._inject_vcs = self._router.allowed_vcs(pkt.vc_class)
        return True

    def _pick_credit_vc(self, vcs: List[int], flit: Flit) -> Optional[int]:
        """Choose the injection VC.

        All flits of one packet must use the same VC on the injection link
        (wormhole); the head picks the allowed VC with the most credits and
        the rest follow via ``flit.vc`` continuity handled by the caller
        keeping ``vcs`` fixed — we simply reuse the head's choice stored in
        the packet id ownership of the router's LOCAL input VC.
        """
        if flit.is_head:
            best, best_credits = None, 0
            for vc in vcs:
                if self._inject_credits[vc] > best_credits:
                    best, best_credits = vc, self._inject_credits[vc]
            self._current_vc = best
            return best
        vc = self._current_vc
        if vc is not None and self._inject_credits[vc] > 0:
            return vc
        return None

    def _ejector(self, arg=None) -> None:
        """Move flits from the ejection buffer into delivered packets.

        The credit for each consumed flit returns to the router only after
        the delivery channel accepted the packet — a slow receiver therefore
        backpressures the NoC instead of dropping traffic.  ``arg``: the
        delivery channel's ``put`` event (the packet was accepted),
        :data:`TICK` the cycle after a flit was consumed, ``None`` that
        deferred step or the arrival that ended a wait on an empty buffer.
        """
        engine = self.engine
        if arg is TICK:
            engine.schedule(0, self._ejector)
            return
        if arg is None:
            if not self._eject_buffer:
                self._awaiting_flit = True
                return
            flit = self._eject_buffer.popleft()
            pkt = flit.packet
            self._partial[pkt.pid] = self._partial.get(pkt.pid, 0) + 1
            if flit.is_tail:
                if self._partial.pop(pkt.pid) != pkt.size_flits:
                    raise ConfigError(
                        f"{self.name}: reassembled wrong flit count for "
                        f"packet {pkt.pid} at cycle {engine.now}"
                    )
                pkt.delivered_at = engine.now
                self.packets_received += 1
                self.network.record_delivery(pkt)
                self._eject_tail = flit
                self.delivered.put(pkt).add_callback(self._ejector)
                return
        else:
            if arg.failed:
                raise arg.value
            flit = self._eject_tail
        # flit consumed: return its LOCAL-output credit to the router
        self._router.credit_arrived(Port.LOCAL, flit.vc)
        engine.schedule(1, self._ejector, TICK)


class Network:
    """A complete NoC instance.

    Parameters mirror the knobs a hardened-NoC datasheet exposes; defaults
    approximate a Versal-style NoC (128-bit flits, 1-cycle links, small VC
    buffers).

    Parameters
    ----------
    engine: simulation engine.
    topo: :class:`Mesh2D` or :class:`Torus2D`.
    routing: routing function (default XY).
    num_vcs / vc_classes: virtual channels and traffic classes.
    buffer_depth: flit slots per input VC.
    hop_latency: cycles from leaving a router to arriving at the next
        (router pipeline + wire).
    credit_latency: cycles for a credit to return upstream.
    """

    def __init__(
        self,
        engine: Engine,
        topo: Mesh2D,
        routing: Optional[RoutingFunction] = None,
        num_vcs: int = 2,
        vc_classes: int = 1,
        buffer_depth: int = 4,
        hop_latency: int = 2,
        credit_latency: int = 1,
        flit_bytes: int = DEFAULT_FLIT_BYTES,
        inject_queue_depth: int = 16,
        delivery_queue_depth: int = 16,
        stats: Optional[StatsRegistry] = None,
        spans: Optional[SpanRecorder] = None,
    ):
        from repro.noc.routing import MinimalAdaptiveRouting, TorusXYRouting

        routing = routing or XYRouting()
        if isinstance(topo, Torus2D) and isinstance(routing, MinimalAdaptiveRouting):
            raise ConfigError(
                "adaptive routing on a torus needs dateline VCs; "
                "use TorusXYRouting (or plain XY/YX) on torus topologies"
            )
        if isinstance(routing, TorusXYRouting) and not isinstance(topo, Torus2D):
            raise ConfigError(
                "TorusXYRouting picks wraparound links; it only makes "
                "sense on a Torus2D topology"
            )
        if hop_latency < 1:
            raise ConfigError(f"hop latency must be >= 1, got {hop_latency}")
        self.engine = engine
        self.topo = topo
        self.routing = routing
        self.num_vcs = num_vcs
        self.vc_classes = vc_classes
        self.buffer_depth = buffer_depth
        self.hop_latency = hop_latency
        self.credit_latency = credit_latency
        self.flit_bytes = flit_bytes
        self.inject_queue_depth = inject_queue_depth
        self.delivery_queue_depth = delivery_queue_depth
        self.stats = stats if stats is not None else StatsRegistry()
        self.spans = spans if spans is not None else SpanRecorder()
        # hot-path stat handles, resolved once: the per-packet loops must
        # not pay a string-keyed registry lookup per event
        self._ctr_injected = self.stats.counter("noc.packets_injected")
        self._ctr_delivered = self.stats.counter("noc.packets_delivered")
        self._ctr_dropped = self.stats.counter("noc.packets_dropped")
        # quantile sketches, not exact histograms: the NoC records a
        # latency per delivered packet for the lifetime of the run, so
        # exact-sample storage is unbounded on long serving runs
        self._hist_latency = self.stats.sketch("noc.packet_latency")
        self._hist_hops = self.stats.sketch("noc.packet_hops")
        self._next_pid = 0
        # fault injection: (src, port) -> (extra hop latency, expires at).
        # _link_last_arrival keeps per-link delivery monotone so a window
        # expiring mid-packet cannot reorder flits (wormhole requires FIFO
        # links).
        self._link_slow: Dict[Any, Any] = {}
        self._link_last_arrival: Dict[Any, int] = {}

        self._routers: List[Router] = [
            Router(
                engine, node, topo, routing,
                num_vcs=num_vcs, vc_classes=vc_classes,
                buffer_depth=buffer_depth, credit_latency=credit_latency,
            )
            for node in topo.nodes()
        ]
        self._interfaces: List[NetworkInterface] = [
            NetworkInterface(self, node) for node in topo.nodes()
        ]
        self._wire()

    # -- construction --------------------------------------------------------

    def _wire(self) -> None:
        for src, port, dst in self.topo.links():
            src_router = self._routers[src]
            dst_router = self._routers[dst]
            in_port = port.opposite

            # the arrival/credit callbacks are built once per link (C-level
            # partials) and handed the flit/vc as the schedule arg — per-flit
            # lambdas were measurable allocation churn at flood rates
            arrive = partial(dst_router.accept_flit, in_port)

            def deliver(flit: Flit, _key=(src, port), _arrive=arrive) -> None:
                last = self._link_last_arrival
                if self._link_slow or last:
                    # a link is (or recently was) degraded: honour per-link
                    # FIFO monotonicity across the latency change
                    hop = self.hop_latency
                    delay = hop + self._link_extra(_key)
                    arrival = max(self.engine.now + delay,
                                  last.get(_key, 0))
                    if delay == hop and arrival == self.engine.now + hop:
                        # constraint no longer binding (healthy link, queue
                        # drained): retire the entry so the whole fabric
                        # returns to the bookkeeping-free path below
                        last.pop(_key, None)
                    else:
                        last[_key] = arrival
                    self.engine.schedule(arrival - self.engine.now,
                                         _arrive, flit)
                else:
                    # healthy fabric: constant hop latency keeps per-link
                    # arrivals monotone by construction — no dict traffic
                    self.engine.schedule(self.hop_latency, _arrive, flit)

            credit = partial(src_router.credit_arrived, port)

            src_router.connect_output(port, deliver, credit)
            dst_router.connect_input_credit(in_port, credit)

        for node in self.topo.nodes():
            router = self._routers[node]
            ni = self._interfaces[node]

            def deliver_local(flit: Flit, _ni=ni) -> None:
                self.engine.schedule(self.hop_latency, _ni._accept_flit, flit)

            router.connect_output(Port.LOCAL, deliver_local, lambda vc: None)
            router.connect_input_credit(Port.LOCAL, ni._local_credit)

    def _link_extra(self, key) -> int:
        entry = self._link_slow.get(key)
        if entry is None:
            return 0
        extra, until = entry
        if self.engine.now >= until:
            del self._link_slow[key]
            return 0
        return extra

    # -- public API -----------------------------------------------------------

    def slow_link(self, src: int, port: Port, extra_latency: int,
                  duration: int) -> None:
        """Degrade one directed link for ``duration`` cycles (fault
        injection: a marginal SerDes lane dropping to a lower rate)."""
        if extra_latency < 0 or duration < 1:
            raise ConfigError("slow_link needs extra >= 0 and duration >= 1")
        self._link_slow[(src, port)] = (
            extra_latency, self.engine.now + duration
        )
        self.stats.counter("noc.links_degraded").inc()

    def router(self, node: int) -> Router:
        return self._routers[node]

    def interface(self, node: int) -> NetworkInterface:
        return self._interfaces[node]

    def make_packet(
        self,
        src: int,
        dst: int,
        payload: Any = None,
        payload_bytes: int = 0,
        vc_class: int = 0,
    ) -> Packet:
        if not 0 <= dst < self.topo.node_count:
            raise RouteError(f"destination {dst} outside topology")
        self._next_pid += 1
        return Packet(
            pid=self._next_pid,
            src=src,
            dst=dst,
            size_flits=flits_for_bytes(payload_bytes, self.flit_bytes),
            vc_class=vc_class,
            payload=payload,
        )

    def record_delivery(self, pkt: Packet) -> None:
        self._ctr_delivered.inc()
        self._hist_latency.record(pkt.latency)
        self._hist_hops.record(pkt.hops)
        if pkt.span_id:
            # eject side of the causal trace: the tail flit reassembled
            self.spans.close(pkt.span_id, self.engine.now,
                             hops=pkt.hops, latency=pkt.latency)

    def total_flits_forwarded(self) -> int:
        return sum(r.flits_forwarded for r in self._routers)

    def in_flight_packets(self) -> int:
        return self._ctr_injected.value - self._ctr_delivered.value

    def zero_load_latency(self, src: int, dst: int, size_flits: int = 1) -> int:
        """Analytic lower bound: hops * hop_latency + serialization.

        Used by tests to sanity-check measured latencies and by the
        monitor-overhead experiment as the no-contention baseline.
        """
        hops = self.topo.hop_distance(src, dst)
        # (hops + 1) link traversals, counting the LOCAL ejection hop, plus
        # one cycle per additional flit of injection serialization.
        return (hops + 1) * self.hop_latency + (size_flits - 1)
