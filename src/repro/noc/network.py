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
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import ConfigError, RouteError
from repro.noc.flit import DEFAULT_FLIT_BYTES, Flit, Packet
from repro.noc.router import CREDIT_LATENCY, NEVER, Router
from repro.noc.routing import TorusXYRouting, XYRouting
from repro.noc.topology import Mesh2D, Port, Torus2D
from repro.obs.span import SpanRecorder
from repro.sim import Channel, Engine, Event, StatsRegistry

__all__ = ["Network", "NetworkInterface"]

#: Tests compare the express lane against the flit path by clearing this;
#: nothing else does — the lane is how an idle network behaves, not a knob.
_LANE = True


class NetworkInterface:
    """The tile-side endpoint of the NoC.

    A tile's monitor speaks to it with plain calls: :meth:`inject` queues a
    packet and calls back when the whole packet is in the router, and
    :attr:`receiver` is handed each reassembled packet.  A bare NoC user
    (a traffic generator, a test) waits on events instead::

        yield ni.send(dst=5, payload=msg, payload_bytes=64)   # blocks until
                                                              # fully injected
        pkt = yield ni.recv()        # blocks until a packet is reassembled
    """

    def __init__(self, network: "Network", node: int):
        self.network = network
        self.node = node
        self.engine = network.engine
        self._spans = network.spans
        self._router = network.router(node)
        #: the router's LOCAL-output credits, which a consumed flit returns
        self._local_credits = self._router._out[Port.LOCAL].credits
        self._hop_latency = network.hop_latency
        num_vcs = network.num_vcs
        depth = network.buffer_depth
        self.name = f"ni{node}"

        # injection side: credits for the router's LOCAL input buffers
        self._inject_credits = [depth] * num_vcs
        #: credits on the wire back from the router: (landing cycle, vc)
        self._credits_in: Deque[Tuple[int, int]] = deque()
        #: the LOCAL-input VCs a head flit may take, every one (a tuple:
        #: iterating it per head is cheaper than a range)
        self._inject_vcs = tuple(range(num_vcs))
        #: packets behind the one the injector holds, each with what to
        #: call once it is injected
        self._inject_queue: Deque[Tuple[Packet, Optional[Callable]]] = deque()
        #: the packet the injector holds (from the ring hop that starts it
        #: to its last flit): what to call once it is in, and the flits not
        #: yet in the router
        self._inject_pkt: Optional[Packet] = None
        self._on_injected: Optional[Callable[[Packet], None]] = None
        self._inject_flits: Deque[Flit] = deque()
        #: the injector is parked until a credit for the router's LOCAL
        #: input is put on the wire (whoever writes that row arms it)
        self._awaiting_credit = False
        #: VC chosen by the current packet's head flit; body/tail flits of
        #: the same packet must follow it (wormhole continuity)
        self._current_vc: Optional[int] = None

        # ejection side: reassembly and delivery
        #: flits on the wire from the router: (landing cycle, flit)
        self._flits_in: Deque[Tuple[int, Flit]] = deque()
        self._eject_buffer: Deque[Flit] = deque()
        #: the cycle the ejector's live wake is stamped for (as a router's)
        self._eject_wake = NEVER
        #: the VC of the tail flit whose packet the delivery channel has
        #: yet to accept (None: the channel holds nothing up)
        self._held_vc: Optional[int] = None
        self._partial: Dict[int, int] = {}  # pid -> flits seen
        #: called with each reassembled packet, which it always takes (the
        #: monitor's ingress); without one, :meth:`recv` hands packets out
        #: through the delivery channel, which holds the tail when full
        self.receiver: Optional[Callable[[Packet], None]] = None
        self.delivered: Channel = Channel(
            self.engine, capacity=network.delivery_queue_depth,
            name=f"{self.name}.delivered",
        )
        self.packets_sent = 0
        self.packets_received = 0

    # -- public API --------------------------------------------------------

    def inject(self, dst: int, payload: Any = None, payload_bytes: int = 0,
               on_injected: Optional[Callable[[Packet], None]] = None) -> None:
        """Queue a payload for ``dst``; ``on_injected(packet)`` is called
        once the *whole packet* is in the router."""
        pkt = self.network.make_packet(self.node, dst, payload, payload_bytes)
        if self._inject_pkt is None:  # an idle injector takes it at once
            self._take(pkt, on_injected)
        else:
            self._inject_queue.append((pkt, on_injected))

    def send(self, dst: int, payload: Any = None,
             payload_bytes: int = 0) -> Event:
        """:meth:`inject` as an event that succeeds with the Packet once
        the whole packet has been injected."""
        done = self.engine.event(f"{self.name}.send")
        self.inject(dst, payload, payload_bytes, done.succeed)
        return done

    def recv(self) -> Event:
        """Event that succeeds with the next fully reassembled packet (for
        an interface with no :attr:`receiver`)."""
        return self.delivered.get()

    @property
    def inject_backlog(self) -> int:
        return len(self._inject_queue)

    def _take(self, pkt: Packet,
              on_injected: Optional[Callable[[Packet], None]]) -> None:
        """Hold ``pkt`` and start it one ring hop later: a packet starts on
        the settled side of its cycle, after this cycle's clocked steps,
        whoever hands it over (see ``Network._demote``)."""
        self._inject_pkt = pkt
        self._on_injected = on_injected
        self.engine.schedule(0, self._injector, pkt)

    # -- the wires (rows written by the router) ------------------------------

    def _credit_row(self, landing: int, vc: int) -> None:
        """The router forwarded a flit out of its LOCAL input buffer."""
        self._credits_in.append((landing, vc))
        if self._awaiting_credit:
            self._awaiting_credit = False
            self.engine.schedule(landing - self.engine.now, self._injector)

    def _flit_row(self, flit: Flit) -> None:
        """The router sent ``flit`` out of its LOCAL port."""
        landing = self.engine.now + self._hop_latency
        self._flits_in.append((landing, flit))
        if landing < self._eject_wake:  # as _arm_ejector
            self._eject_wake = landing
            self.engine.schedule(self._hop_latency, self._ejector)

    # -- state machines ------------------------------------------------------

    def _injector(self, arg=None) -> None:
        """Drain the injection queue, one packet at a time, flit by flit.

        One flit enters the router per cycle at most (link width), and only
        when a credit for the chosen LOCAL-input VC is available.  ``arg``
        says why the step runs: the packet just taken, to start; ``None``
        is the clocked step — the cycle after a flit went in, or the
        landing of the credit the injector waited for.
        """
        if arg is not None and not self._start_packet(arg):
            return
        flits = self._inject_flits
        if not flits:
            self._injection_complete()
            return
        now = self.engine.now
        credits = self._inject_credits
        rows = self._credits_in
        while rows and rows[0][0] <= now:
            credits[rows.popleft()[1]] += 1
        flit = flits[0]
        if flit.is_head:
            # the head takes the VC with the most credits (first on a tie);
            # the rest of the packet follows it on the injection link
            # (wormhole continuity)
            vc = None
            best = 0
            for v in self._inject_vcs:
                if credits[v] > best:
                    vc = v
                    best = credits[v]
            self._current_vc = vc
        else:
            vc = self._current_vc
            if vc is not None and credits[vc] <= 0:
                vc = None
        if vc is None:
            if rows:
                self.engine.schedule(rows[0][0] - now, self._injector)
            else:
                self._awaiting_credit = True
            return
        flits.popleft()
        flit.vc = vc
        credits[vc] -= 1
        self.engine.schedule(1, self._injector)
        self._router.inject(flit)

    def _land_credits(self, now: int) -> None:
        credits_in = self._credits_in
        while credits_in and credits_in[0][0] <= now:
            self._inject_credits[credits_in.popleft()[1]] += 1

    def _injection_complete(self) -> None:
        """The whole packet is in the router: tell the sender (a packet it
        hands over now queues behind those waiting), take the next."""
        self.packets_sent += 1
        self.network._ctr_injected.value += 1
        if self._on_injected is not None:
            self._on_injected(self._inject_pkt)
        self._inject_pkt = None
        if self._inject_queue:
            self._take(*self._inject_queue.popleft())

    def _start_packet(self, pkt: Packet) -> bool:
        """Take ``pkt`` from the queue; ``True`` if its flits are staged
        for the injector (``False``: it crosses on the network's express
        lane)."""
        now = self.engine.now
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
        if self.network._enter(self, pkt):
            return False
        self._inject_flits.extend(pkt.make_flits())
        return True

    def _deliver(self, pkt: Packet, vc: Optional[int]) -> None:
        """The tail flit, on ``vc``, completed ``pkt``: hand it to the
        receiver and consume the tail, or to the delivery channel and hold
        the tail (and its credit) until the channel accepts it.  ``vc`` is
        ``None`` for the express lane's tail handed to a receiver: it never
        took the router's LOCAL credit, and consuming it in an idle network
        would wake nothing."""
        pkt.delivered_at = self.engine.now
        self.packets_received += 1
        self.network.record_delivery(pkt)
        if self.receiver is not None:
            self.receiver(pkt)
            if vc is not None:
                self._consumed(vc)
            return
        self._held_vc = vc
        self.delivered.put(pkt).add_callback(self._ejector)

    # -- express-lane checkpoints (see Network._enter) ----------------------

    def _lane_injected(self, pkt: Packet) -> None:
        """``t0 + F``: the cycle the injector would find no flit left."""
        network = self.network
        if network._express is pkt:
            network._lane_all_in = True
            self._injection_complete()

    def _lane_delivered(self, pkt: Packet) -> None:
        """``t0 + zero_load_latency``: the tail reaches this interface."""
        network = self.network
        if network._express is pkt:
            network._commit()

    def _arm_ejector(self, cycle: int) -> None:
        if cycle < self._eject_wake:
            self._eject_wake = cycle
            self.engine.schedule(cycle - self.engine.now, self._ejector)

    def _ejector(self, arg=None) -> None:
        """Move flits from the ejection buffer into delivered packets.

        One flit is consumed per cycle.  The credit for each consumed flit
        returns to the router at once; with no receiver, the tail's only
        after the delivery channel accepted the packet — a slow ``recv()``
        therefore backpressures the NoC instead of dropping traffic.
        ``arg``: the delivery channel's ``put`` event (the packet was
        accepted), or ``None`` for a wake stamped ``_eject_wake`` (a flit
        lands, or the cycle after one was consumed while more wait).
        """
        if arg is not None:
            vc = self._held_vc
            self._held_vc = None
            self._consumed(vc)
            return
        now = self.engine.now
        if now != self._eject_wake:
            return
        self._eject_wake = NEVER
        buffer = self._eject_buffer
        rows = self._flits_in
        while rows and rows[0][0] <= now:
            buffer.append(rows.popleft()[1])
        if self._held_vc is not None or not buffer:
            return  # held by the delivery channel: resumes on accept
        flit = buffer.popleft()
        pkt = flit.packet
        if flit.is_tail:
            if self._partial.pop(pkt.pid, 0) + 1 != pkt.size_flits:
                raise ConfigError(
                    f"{self.name}: reassembled wrong flit count for "
                    f"packet {pkt.pid} at cycle {now}"
                )
            self._deliver(pkt, flit.vc)
            return
        partial = self._partial
        partial[pkt.pid] = partial.get(pkt.pid, 0) + 1
        self._consumed(flit.vc)

    def _consumed(self, vc: int) -> None:
        """A flit on ``vc`` is consumed: the next flit is consumed no
        earlier than the next cycle, and its LOCAL-output credit is back at
        the router this cycle (there is no wire between them)."""
        now = self.engine.now
        if self._eject_buffer:
            wake = now + 1
        elif self._flits_in:
            wake = self._flits_in[0][0]
            if wake <= now:
                wake = now + 1
        else:
            wake = NEVER
        if wake < self._eject_wake:  # as _arm_ejector
            self._eject_wake = wake
            self.engine.schedule(wake - now, self._ejector)
        router = self._router
        credits = self._local_credits
        credits[vc] += 1
        if credits[vc] > router.buffer_depth:
            router._credit_overflow(Port.LOCAL, vc)
        if router._buffered:
            router._poke()


class Network:
    """A complete NoC instance.

    Parameters mirror the knobs a hardened-NoC datasheet exposes; defaults
    approximate a Versal-style NoC (128-bit flits, 1-cycle links, small VC
    buffers).

    Parameters
    ----------
    engine: simulation engine.
    topo: :class:`Mesh2D` (XY routing) or :class:`Torus2D` (torus XY
        routing with dateline VCs).
    num_vcs: virtual channels per port; a head flit takes any free one.
    buffer_depth: flit slots per input VC.
    hop_latency: cycles from leaving a router to arriving at the next
        (router pipeline + wire).

    A credit returns upstream ``CREDIT_LATENCY`` cycles after its flit
    left the buffer.
    """

    def __init__(
        self,
        engine: Engine,
        topo: Mesh2D,
        num_vcs: int = 2,
        buffer_depth: int = 4,
        hop_latency: int = 2,
        flit_bytes: int = DEFAULT_FLIT_BYTES,
        delivery_queue_depth: int = 16,
        stats: Optional[StatsRegistry] = None,
        spans: Optional[SpanRecorder] = None,
    ):
        torus = isinstance(topo, Torus2D)
        routing = TorusXYRouting() if torus else XYRouting()
        if hop_latency < 1:
            raise ConfigError(f"hop latency must be >= 1, got {hop_latency}")
        self.engine = engine
        self.topo = topo
        self.routing = routing
        self.num_vcs = num_vcs
        self.buffer_depth = buffer_depth
        self.hop_latency = hop_latency
        self.flit_bytes = flit_bytes
        self.delivery_queue_depth = delivery_queue_depth
        self.stats = stats if stats is not None else StatsRegistry()
        self.spans = spans if spans is not None else SpanRecorder()
        # hot-path stat handles, resolved once: the per-packet loops must
        # not pay a string-keyed registry lookup per event
        self._ctr_injected = self.stats.counter("noc.packets_injected")
        self._ctr_delivered = self.stats.counter("noc.packets_delivered")
        # quantile sketches, not exact histograms: the NoC records a
        # latency per delivered packet for the lifetime of the run, so
        # exact-sample storage is unbounded on long serving runs
        self._hist_latency = self.stats.sketch("noc.packet_latency")
        self._hist_hops = self.stats.sketch("noc.packet_hops")
        self._next_pid = 0
        #: packets in the fabric: taken by an injector, tail not yet
        #: reassembled (zero means no flit exists anywhere)
        self._live = 0
        #: the cycle from which the network is known quiet while ``_live``
        #: is 0 — every credit home, no VC owned, no router stalled: the end
        #: of the latest stall.  Deliveries need not raise it: the one that
        #: empties the network comes ``hop_latency >= CREDIT_LATENCY``
        #: cycles after the tail left the last router, so every credit a
        #: switching put on a wire has landed by then, and every tail has
        #: released its VCs
        self._quiet_from = 0
        #: the packet on the express lane, if any (it counts as live), and
        #: its lane: start cycle, route, whether its last flit is in (there
        #: is only ever one express packet)
        self._express: Optional[Packet] = None
        self._lane_t0 = 0
        self._lane_route: tuple = ()
        self._lane_all_in = False
        #: per (src, dst): the route's generic path, its commit plan and
        #: its hop count (``_build_route``)
        self._lane_routes: Dict[Tuple[int, int], tuple] = {}
        #: a lone packet never waits for a credit iff a buffer covers the
        #: flit + credit round trip; dateline routing chooses VCs from
        #: state it does not model
        self._lane_capable = (
            buffer_depth >= hop_latency + CREDIT_LATENCY and not torus)
        #: packets that started on the express lane / were taken off it
        #: mid-flight (plain attributes: the stats registry must read the
        #: same with the lane on or off)
        self.express_packets = 0
        self.express_demotions = 0

        self._routers: List[Router] = [
            Router(
                engine, node, topo, routing,
                num_vcs=num_vcs, buffer_depth=buffer_depth,
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
            self._routers[src].connect_link(port, self._routers[dst],
                                            self.hop_latency)
        for node in self.topo.nodes():
            router = self._routers[node]
            ni = self._interfaces[node]
            router.connect_local(ni._flit_row, ni._credit_row)
            router._sync = self._demote
            router._stalled = self._stalled

    # -- the express lane -------------------------------------------------------
    #
    # A packet that starts while no other flit exists, on a route whose
    # routers are unstalled with every credit home, meets no contention:
    # flit k is injected at t0 + k, switched by the j-th router of the route
    # at t0 + k + j * hop_latency (the cycle it lands), and consumed by the
    # far interface at t0 + k + (hops + 1) * hop_latency.  Such a packet
    # makes no flits.  Two engine events stand for it — injection complete
    # at t0 + F, tail delivered at D = t0 + zero_load_latency — and the
    # state the flit path would be in is written from those formulas:
    # after D (``_commit``, from the route's plan), or after an earlier
    # cycle (``_materialize``), when something ends the idleness before D
    # (``_demote``) and the packet carries on flit by flit.

    def _enter(self, ni: NetworkInterface, pkt: Packet) -> bool:
        """``ni`` starts ``pkt`` on the settled side of the cycle; ``True``
        if it crosses on the lane."""
        if self._express is not None:
            self._demote()
        self._live += 1
        if self._live != 1 or not _LANE or not self._lane_capable:
            return False
        route = self._open_route(ni, pkt)
        if route is None:
            return False
        self._express = pkt
        self._lane_t0 = self.engine.now
        self._lane_route = route
        self._lane_all_in = False
        ni._current_vc = 0
        self.express_packets += 1
        flits = pkt.size_flits
        # injection complete first: in a delivery cycle that is also t0 + F
        # (one router, one cycle per hop) the commit finds the flits all in
        self.engine.schedule(flits, ni._lane_injected, pkt)
        self.engine.schedule(len(route[0]) * self.hop_latency + flits - 1,
                             self._interfaces[pkt.dst]._lane_delivered, pkt)
        return True

    def _open_route(self, ni: NetworkInterface,
                    pkt: Packet) -> Optional[tuple]:
        """``pkt``'s route (``_build_route``) if the lane is open to it in
        an empty network: its far interface holds no tail, and the network
        is past its quiet horizon or the route passes the per-router check
        (``_route_idle``)."""
        route = self._lane_routes.get((pkt.src, pkt.dst))
        if route is None:
            route = self._lane_routes[pkt.src, pkt.dst] = self._build_route(
                pkt.src, pkt.dst)
        if self._interfaces[pkt.dst]._held_vc is not None:
            return None  # the delivery channel still holds up the ejector
        now = self.engine.now
        if now >= self._quiet_from or self._route_idle(ni, route[0], now):
            return route
        return None

    def _route_idle(self, ni: NetworkInterface, path: tuple,
                    now: int) -> bool:
        """The per-router check: ``ni``'s injection credits and every
        output credit on ``path`` are home, no output VC is owned and no
        router is stalled."""
        depth = self.buffer_depth
        if ni._credits_in:
            ni._land_credits(now)
        if ni._inject_credits[0] != depth:
            return False
        for router, _in_port, _ivcs, _out_port, out in path:
            if now < router.stalled_until:
                return False
            if router._credits_in:
                router._land(now)
            # all credits home and no owner: the head's VC allocation picks
            # VC 0, as the injector just did
            if out.credits[0] != depth or out.vc_owner[0] is not None:
                return False
        return True

    def _build_route(self, src: int, dst: int) -> tuple:
        """``(path, plan, hops)`` of the route, one row per router, source
        first: in ``path`` (router, input port, its InputVCs, output port,
        its OutputPort), in ``plan`` (router, OutputPort, the round-robin
        pointer a grant to the input's VC 0 leaves, the cycles from t0 to
        the head's switching there)."""
        path, plan = [], []
        node, in_port = src, Port.LOCAL
        while True:
            router = self._routers[node]
            out_port = (Port.LOCAL if node == dst else
                        self.routing.route(self.topo, node, dst))
            ivcs, out = router._in[in_port], router._out[out_port]
            plan.append((router, out, ivcs[0].after,
                         len(path) * self.hop_latency))
            path.append((router, in_port, ivcs, out_port, out))
            if node == dst:
                return tuple(path), tuple(plan), len(path) - 1
            node = self.topo.neighbor(node, out_port)
            in_port = out_port.opposite

    def _stalled(self, until: int) -> None:
        """A router stalls until ``until``: the network is not known quiet
        before then."""
        if until > self._quiet_from:
            self._quiet_from = until

    def _demote(self) -> None:
        """Take the express packet (if any) off the lane: from here on it
        is flits, exactly where the flit path would have them.

        "Now" is this cycle's actions included when every callback stamped
        for this cycle from an earlier one has fired (``Engine.settled``:
        the same-cycle ring, or outside ``run``) — on the flit path the
        machines act from such callbacks, so they have acted.  A caller the
        heap fires comes before them: the state written is the previous
        cycle's, and the machines step later in this one.
        """
        if self._express is not None:
            self.express_demotions += 1
            engine = self.engine
            self._materialize(
                engine.now if engine.settled else engine.now - 1)

    def _commit(self) -> None:
        """In the lane packet's delivery cycle ``D``, write the flit-path
        state from its route's plan: every stage switched all ``F`` flits,
        the last at ``t0 + offset + F - 1``, and every credit is home (the
        tail left the last router ``hop_latency >= CREDIT_LATENCY`` cycles
        before ``D``); the far interface takes the tail."""
        pkt = self._express
        self._express = None
        total = pkt.size_flits
        last = self._lane_t0 + total - 1
        _path, plan, pkt.hops = self._lane_route
        for router, out, after, offset in plan:
            router._flits_forwarded += total
            router._moved_at = last + offset
            out.flits_sent += total
            out.pointer = after
        far = self._interfaces[pkt.dst]
        if far.receiver is not None:
            far._deliver(pkt, None)
            return
        # the delivery channel takes it: the tail holds its LOCAL credit
        out.credits[0] -= 1
        far._deliver(pkt, 0)

    def _materialize(self, upto: int) -> None:
        """Write the flit-path state after the actions of cycle ``upto``.

        The ``j``-th router of the route switches the head at ``start =
        t0 + j*hop`` and one flit a cycle from then on, so by ``upto`` it
        has switched ``clamp(upto - start + 1, 0, F)`` flits; the far
        interface consumes them one hop later still, and the credit for a
        flit is back upstream ``CREDIT_LATENCY`` after the next stage
        switched it.  Flits and credits between two stages become inbox
        rows, a stage the head has passed but not the tail owns its output
        VC.  ``upto`` is before the delivery cycle (the lane's checkpoint
        fires in the heap phase of that cycle, ahead of every caller that
        would read it as done), so the tail is not consumed yet.
        """
        pkt = self._express
        self._express = None
        t0, vc, path = self._lane_t0, 0, self._lane_route[0]
        total, pid = pkt.size_flits, pkt.pid
        hop, lag = self.hop_latency, CREDIT_LATENCY
        landing = t0 + len(path) * hop  # the head reaches the far interface
        consumed = upto - landing + 1
        if consumed < 0:
            consumed = 0
        flits = pkt.make_flits()
        for flit in flits:
            flit.vc = vc

        # the injector: flit k goes in at t0 + k and is switched on at once
        src = self._interfaces[pkt.src]
        sent = upto - t0 + 1
        if sent >= total + lag:
            sent = total  # all in, every credit back
        else:
            back = sent - lag if sent > lag else 0
            if sent > total:
                sent = total
            src._inject_credits[vc] -= sent - back
            for k in range(back, sent):
                src._credits_in.append((t0 + k + lag, vc))
        if not self._lane_all_in:
            src._inject_flits.extend(flits[sent:])
            self.engine.schedule(t0 + sent - self.engine.now, src._injector)

        start = t0  # the cycle the current router switches the head
        up_router = up_port = up_out = None
        for router, in_port, ivcs, out_port, out in path:
            arrived = sent  # flits the previous stage put on the wire
            sent = upto - start + 1
            if sent >= total + lag:
                sent = back = total  # tail through, its credit home upstream
            else:
                back = sent - lag if sent > lag else 0
                sent = total if sent > total else sent if sent > 0 else 0
            if sent:
                router._flits_forwarded += sent
                router._moved_at = start + sent - 1
                out.flits_sent += sent
                out.pointer = ivcs[vc].after
                if out_port is not Port.LOCAL:
                    pkt.hops += 1
                if sent < total:
                    out.vc_owner[vc] = pid
                    ivc = ivcs[vc]
                    ivc.out_port, ivc.out_vc, ivc.active_pid = out_port, vc, pid
            if back < arrived and up_router is not None:
                # the link into this router: flits still on it, and credits
                # this router's switching has put on the way back
                up_out.credits[vc] -= arrived - back
                for k in range(back, sent):
                    up_router._credits_in.append(
                        (start + k + lag, up_port, vc))
                for k in range(sent, arrived):
                    router._flits_in.append((start + k, in_port, flits[k]))
                if sent < arrived:
                    router._arm(start + sent)
            up_router, up_port, up_out = router, out_port, out
            start += hop

        # the far interface: every flit it consumed returned its credit to
        # the last router at once
        far = self._interfaces[pkt.dst]
        out.credits[vc] -= sent - consumed
        for k in range(consumed, sent):
            far._flits_in.append((landing + k, flits[k]))
        if consumed < sent:
            far._arm_ejector(landing + consumed)
        if consumed:
            far._partial[pid] = consumed

    # -- public API -----------------------------------------------------------

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
    ) -> Packet:
        if not 0 <= dst < len(self._interfaces):  # one per node
            raise RouteError(f"destination {dst} outside topology")
        self._next_pid += 1
        if payload_bytes < 0:
            raise ConfigError(f"negative payload size {payload_bytes}")
        # flits_for_bytes, inline: the header flit plus ceil(bytes / width)
        return Packet(self._next_pid, src, dst,
                      1 - (-payload_bytes // self.flit_bytes), payload)

    def record_delivery(self, pkt: Packet) -> None:
        """Account ``pkt``, stamped at its injection and its delivery."""
        self._live -= 1
        self._ctr_delivered.value += 1
        latency = pkt.delivered_at - pkt.injected_at
        self._hist_latency.record(latency)
        self._hist_hops.record(pkt.hops)
        if pkt.span_id:
            # eject side of the causal trace: the tail flit reassembled
            self.spans.close(pkt.span_id, self.engine.now,
                             hops=pkt.hops, latency=latency)

    def total_flits_forwarded(self) -> int:
        self._demote()
        return sum(r._flits_forwarded for r in self._routers)

    def in_flight_packets(self) -> int:
        return self._ctr_injected.value - self._ctr_delivered.value

    def zero_load_latency(self, src: int, dst: int) -> int:
        """Analytic lower bound for a one-flit packet: (hops + 1) link
        traversals, counting the LOCAL ejection hop; each further flit
        adds one cycle of injection serialization.

        Tests use it to check measured latencies against the
        no-contention cycle count.
        """
        return (self.topo.hop_distance(src, dst) + 1) * self.hop_latency
