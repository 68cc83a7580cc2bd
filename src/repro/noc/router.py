"""Input-queued wormhole router with virtual channels and credit flow control.

The router is a callback state machine on the engine (no process, no
generator).  What is on its input wires — flits from upstream, credits from
downstream — sits in two timed inboxes as rows stamped with their landing
cycle; a step lands the rows that are due, makes at most one moving
switch-allocation pass per cycle, and re-arms itself on the engine for the
next cycle it can do anything in (the next landing, or the next cycle while
movable flits remain).  Each pass grants at most one flit per output port and
one flit per input port (the crossbar constraint).  Head flits perform route
computation and virtual-channel allocation; tail flits release the output
VC (wormhole semantics: a packet owns its path until the tail passes).

Deadlock freedom:
* deterministic XY/YX routing is deadlock-free on a mesh with any VC count;
* minimal-adaptive routing restricts VC 0 to the XY escape path (Duato);
* on a torus, a dateline VC flip would be required — the router refuses
  adaptive routing on a torus rather than silently deadlocking.

Per-hop latency (pipeline + wire) is modelled by the link's delivery delay,
configured in :class:`repro.noc.network.Network`.
"""

from __future__ import annotations

import sys
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.noc.arbiter import RoundRobinArbiter
from repro.noc.flit import Flit
from repro.noc.routing import (
    MinimalAdaptiveRouting,
    RoutingFunction,
    TorusXYRouting,
)
from repro.noc.topology import Mesh2D, Port

__all__ = ["Router", "InputVC", "OutputPort"]

#: Link callback type: (flit) -> None, puts the flit on the output wire.
DeliverFn = Callable[[Flit], None]
#: Credit-return callback type: (landing cycle, vc) -> None, puts a credit
#: on the wire back to the upstream sender.
CreditFn = Callable[[int, int], None]

#: "no step armed" (shared with the network interfaces)
NEVER = sys.maxsize


def _nothing() -> None:
    pass


class InputVC:
    """State of one (input port, virtual channel) buffer."""

    __slots__ = ("buffer", "out_port", "out_vc", "active_pid")

    def __init__(self, depth: int):
        self.buffer: Deque[Flit] = deque(maxlen=depth)
        self.out_port: Optional[Port] = None
        self.out_vc: Optional[int] = None
        self.active_pid: Optional[int] = None

    def reset_route(self) -> None:
        self.out_port = None
        self.out_vc = None
        self.active_pid = None


class OutputPort:
    """Per-output-port state: downstream credits, VC ownership, the link."""

    __slots__ = ("credits", "vc_owner", "deliver", "arbiter", "flits_sent")

    def __init__(self, num_vcs: int, buffer_depth: int, slots: int):
        self.credits = [buffer_depth] * num_vcs
        self.vc_owner: List[Optional[int]] = [None] * num_vcs
        self.deliver: Optional[DeliverFn] = None
        self.arbiter = RoundRobinArbiter(slots)
        self.flits_sent = 0


class Router:
    """One NoC router tile.

    Wiring (``connect``) is done by :class:`~repro.noc.network.Network`;
    the router only knows callbacks for delivering flits downstream and
    returning credits upstream.
    """

    def __init__(
        self,
        engine,
        node: int,
        topo: Mesh2D,
        routing: RoutingFunction,
        num_vcs: int = 2,
        vc_classes: int = 1,
        buffer_depth: int = 4,
        credit_latency: int = 1,
        name: str = "",
    ):
        if num_vcs < 1:
            raise ConfigError(f"need >= 1 VC, got {num_vcs}")
        if vc_classes < 1 or vc_classes > num_vcs:
            raise ConfigError(
                f"vc_classes must be in [1, num_vcs]; got {vc_classes} with "
                f"{num_vcs} VCs"
            )
        if buffer_depth < 1:
            raise ConfigError(f"buffer depth must be >= 1, got {buffer_depth}")
        if credit_latency < 0:
            raise ConfigError(
                f"credit latency must be >= 0, got {credit_latency}"
            )
        self.engine = engine
        self.node = node
        self.topo = topo
        self.routing = routing
        self.num_vcs = num_vcs
        self.vc_classes = vc_classes
        self.buffer_depth = buffer_depth
        self.credit_latency = credit_latency
        self.name = name or f"router{node}"
        self._adaptive = isinstance(routing, MinimalAdaptiveRouting)
        self._dateline = isinstance(routing, TorusXYRouting)
        if self._dateline and (num_vcs < 2 or vc_classes != 1):
            raise ConfigError(
                "torus dateline routing needs num_vcs >= 2 and a single "
                "VC class (both VCs belong to the dateline scheme)"
            )

        self.ports: List[Port] = [Port.LOCAL]
        for port in (Port.NORTH, Port.EAST, Port.SOUTH, Port.WEST):
            if topo.neighbor(node, port) is not None:
                self.ports.append(port)

        slots = len(self.ports) * num_vcs
        self._in: Dict[Port, List[InputVC]] = {
            p: [InputVC(buffer_depth) for _ in range(num_vcs)] for p in self.ports
        }
        self._out: Dict[Port, OutputPort] = {
            p: OutputPort(num_vcs, buffer_depth, slots) for p in self.ports
        }
        self._credit_return: Dict[Port, Optional[CreditFn]] = {
            p: None for p in self.ports
        }
        # hot-path tables, resolved once per router instead of per pass:
        # arbiter slot base per input port (replaces list.index arithmetic),
        # the VC set for each traffic class, and memoized routing decisions
        # (routing functions are pure in (node, dst), so per-destination
        # candidate lists never change for a given router)
        self._port_base: Dict[Port, int] = {
            p: i * num_vcs for i, p in enumerate(self.ports)
        }
        self._allowed: List[List[int]] = [
            [v for v in range(num_vcs) if v % vc_classes == cls]
            for cls in range(vc_classes)
        ]
        self._cand_cache: Dict[int, List[Port]] = {}
        self._escape_cache: Dict[int, List[Port]] = {}
        #: flattened (in_port, vc, arbiter_slot, input VC) scan order — the
        #: allocation pass walks this single prebuilt list instead of
        #: re-resolving two dicts and an enumerate per port per cycle
        self._scan: List[Tuple[Port, int, int, InputVC]] = [
            (p, vc, self._port_base[p] + vc, ivc)
            for p in self.ports
            for vc, ivc in enumerate(self._in[p])
        ]

        #: timed inboxes — what is on the input wires, in landing order:
        #: ``(landing cycle, input port, flit)`` and, for credits coming
        #: back to an output port, ``(landing cycle, output port, vc)``.
        #: Rows are data, not engine events: a step lands the due ones.
        self._flits_in: Deque[Tuple[int, Port, Flit]] = deque()
        self._credits_in: Deque[Tuple[int, Port, int]] = deque()
        #: the cycle the one live ``_run`` on the engine is stamped for
        #: (:data:`NEVER` while parked); an entry stamped otherwise has
        #: been superseded by an earlier arm and does nothing
        self._wake_at = NEVER
        #: cycle of the last pass that moved a flit: a router never makes
        #: two moving passes in one cycle (one flit per output per cycle)
        self._moved_at = -1
        self._flits_forwarded = 0
        #: incrementally maintained count of flits across all input VCs —
        #: the allocation loop polls "any work?" once per pass, and scanning
        #: every (port, VC) buffer to answer it dominated the hot path
        self._buffered = 0
        #: fault injection: allocation is suspended until this cycle.
        #: Buffered flits sit still and credits stop flowing upstream, so
        #: backpressure spreads exactly as a stuck pipeline stage would.
        self.stalled_until = 0
        self.stalls_injected = 0
        #: called before per-router state is read or a fault is applied
        #: from outside the datapath (the network's express lane hooks in)
        self._sync: Callable[[], None] = _nothing

    # -- wiring (called by Network) ---------------------------------------

    def connect_output(self, port: Port, deliver: DeliverFn) -> None:
        """Attach the link that carries flits leaving on ``port``."""
        self._out[port].deliver = deliver

    def connect_input_credit(self, port: Port, return_credit: CreditFn) -> None:
        """Attach the wire that returns a buffer credit to the upstream
        sender when a flit leaves this router's input buffer on ``port``."""
        self._credit_return[port] = return_credit

    # -- the wires (rows written by links and neighbours) -------------------

    def flit_row(self, landing: int, port: Port, flit: Flit) -> None:
        """A flit is on the wire into ``port``, due at cycle ``landing``.

        Healthy links write in landing order and append directly; this is
        the general entry, which keeps the inbox sorted when a degraded
        link lands later than a healthy one written after it.
        """
        rows = self._flits_in
        index = len(rows)
        while index and rows[index - 1][0] > landing:
            index -= 1
        rows.insert(index, (landing, port, flit))
        self._arm(landing)

    def credit_row(self, port: Port, landing: int, vc: int) -> None:
        """A credit for output ``port`` / ``vc`` is on the wire, due at
        ``landing`` (credit wires share one latency: rows stay sorted)."""
        self._credits_in.append((landing, port, vc))
        # a credit can only unblock a flit: an empty router with nothing
        # inbound sleeps on and lands the row whenever it next steps
        if (self._buffered or self._flits_in) and landing < self._wake_at:
            self._arm(landing)

    # -- datapath entry points ----------------------------------------------

    def accept_flit(self, port: Port, flit: Flit) -> None:
        """A flit arrives on input ``port`` now (its ``vc`` chosen upstream)."""
        self._buffer(port, flit)
        self._arm(self.engine.now)

    def credit_arrived(self, port: Port, vc: int) -> None:
        """Downstream freed a buffer slot on our output ``port`` / ``vc``."""
        self._credit(port, vc)
        # a credit can only unblock a buffered flit: an empty router sleeps on
        if self._buffered:
            self._arm(self.engine.now)

    def _buffer(self, port: Port, flit: Flit) -> None:
        ivc = self._in[port][flit.vc]
        if len(ivc.buffer) >= self.buffer_depth:
            raise ConfigError(
                f"{self.name}: input buffer overflow on {port.name} "
                f"vc{flit.vc} at cycle {self.engine.now} (credit protocol "
                "violated)"
            )
        ivc.buffer.append(flit)
        self._buffered += 1

    def _credit(self, port: Port, vc: int) -> None:
        credits = self._out[port].credits
        credits[vc] += 1
        if credits[vc] > self.buffer_depth:
            raise ConfigError(
                f"{self.name}: credit overflow on {port.name} vc{vc} at "
                f"cycle {self.engine.now}"
            )

    def inject(self, flit: Flit) -> None:
        """The local interface's clocked step hands over a flit: it is in
        the LOCAL input buffer this cycle and this cycle's pass sees it."""
        self._buffer(Port.LOCAL, flit)
        self._poke()

    def local_credit(self, vc: int) -> None:
        """The local interface consumed a flit: its LOCAL-output credit is
        back this cycle (there is no wire between a router and its NI)."""
        self._credit(Port.LOCAL, vc)
        if self._buffered:
            self._poke()

    def _poke(self) -> None:
        """Step now unless a step is still to come this cycle; a router
        that already moved flits this cycle steps again in the next."""
        now = self.engine.now
        if self._wake_at == now:
            return
        if self._moved_at == now or now < self.stalled_until:
            self._arm(now + 1)
        else:
            self._step(now)

    # -- inspection --------------------------------------------------------

    @property
    def flits_forwarded(self) -> int:
        """Flits this router has switched to an output so far."""
        self._sync()
        return self._flits_forwarded

    def occupancy(self) -> int:
        self._sync()
        self._land(self.engine.now)
        return self._buffered

    @property
    def buffered_flits(self) -> int:
        """Flits currently held in this router's input VC buffers.

        The public read for telemetry/reporting; same value as
        :meth:`occupancy`, exposed as a property so samplers observe the
        router without reaching into its counters.
        """
        return self.occupancy()

    def allowed_vcs(self, vc_class: int) -> List[int]:
        """VC indices a traffic class may use (classes partition the VCs).

        Returns a shared per-class list resolved at construction; callers
        must treat it as read-only.
        """
        return self._allowed[min(vc_class, self.vc_classes - 1)]

    # -- the router state machine --------------------------------------------

    def stall(self, cycles: int) -> None:
        """Freeze switch allocation for ``cycles`` (fault injection)."""
        self._sync()
        self.stalled_until = max(self.stalled_until, self.engine.now + cycles)
        self.stalls_injected += 1
        self._arm(self.stalled_until)

    def _arm(self, cycle: int) -> None:
        """Have a step run at ``cycle`` (the end of a stall if that is
        later) unless one is already due no later than that."""
        if cycle < self.stalled_until:
            cycle = self.stalled_until
        if cycle < self._wake_at:
            self._wake_at = cycle
            self.engine.schedule(cycle - self.engine.now, self._run)

    def _run(self, _arg=None) -> None:
        """The engine callback: step, unless an earlier arm superseded it."""
        now = self.engine.now
        if now == self._wake_at:
            self._wake_at = NEVER
            self._step(now)

    def _land(self, now: int) -> None:
        """Move every row due by ``now`` off the wires."""
        rows = self._flits_in
        while rows and rows[0][0] <= now:
            _at, port, flit = rows.popleft()
            self._buffer(port, flit)
        credits = self._credits_in
        while credits and credits[0][0] <= now:
            _at, port, vc = credits.popleft()
            self._credit(port, vc)

    def _step(self, now: int) -> None:
        """Land what is due, make this cycle's pass, arm the next step.

        A pass that moved flits leaves ``_moved_at`` set for the cycle, so
        a router never runs two moving passes in one cycle (one flit per
        output port per cycle).  The next step is the next cycle while
        flits remain that a pass may move, else the next landing; a pass
        that moved nothing waits for the next credit or flit row — whoever
        writes one while the router holds flits arms it.
        """
        if now < self.stalled_until:
            self._arm(self.stalled_until)
            return
        self._land(now)
        wake = NEVER
        if self._buffered:
            if self._moved_at == now:
                wake = now + 1
            elif self._allocation_pass():
                self._moved_at = now
                if self._buffered:
                    wake = now + 1
            elif self._credits_in:
                wake = self._credits_in[0][0]
        if self._flits_in and self._flits_in[0][0] < wake:
            wake = self._flits_in[0][0]
        self._arm(wake)

    def _allocation_pass(self) -> int:
        """One switch-allocation cycle; returns the number of flits moved.

        Deterministic routing (XY/YX/dateline) yields a single candidate
        port, so an input VC's request — its (output port, output VC) pair —
        cannot be altered by grants on *other* output ports within the pass:
        a grant only mutates state on its own output port and on an input
        that is then excluded anyway.  That lets us scan the input buffers
        once, bucket requests by output port, and arbitrate each port from
        its bucket — identical grants to the per-port rescan at a fraction
        of the scanning work.  Adaptive routing credit-balances across
        candidate ports mid-pass, so it keeps the faithful rescan.
        """
        if self._adaptive:
            return self._allocation_pass_rescan()
        # one buffered flit (every pass of an idle cluster) contends with
        # nobody: it is granted straight from the scan — no buckets, no
        # crossbar bookkeeping — and the arbiter pointer still moves past it
        single = self._buffered == 1
        buckets: Dict[Port, List[Tuple[int, Port, int, int]]] = {}
        outs = self._out
        for in_port, vc, slot, ivc in self._scan:
            buffer = ivc.buffer
            if not buffer:
                continue
            port_choice = ivc.out_port
            if port_choice is None:
                # an unrouted VC only requests when a head flit is at the
                # front (body flits behind a reset route wait for it)
                flit = buffer[0]
                if not flit.is_head:
                    continue
                choice = self._route_and_allocate(in_port, vc, flit)
                if choice is None:
                    continue
                port_choice, out_vc = choice
            else:
                out_vc = ivc.out_vc
                if out_vc is None:
                    continue
                if outs[port_choice].credits[out_vc] <= 0:
                    continue
            if single:
                out = outs[port_choice]
                if out.deliver is None:
                    return 0
                out.arbiter.pick_first(((slot,),))
                self._forward(in_port, vc, port_choice, out_vc)
                return 1
            bucket = buckets.get(port_choice)
            if bucket is None:
                bucket = buckets[port_choice] = []
            bucket.append((slot, in_port, vc, out_vc))
        if not buckets:
            return 0
        moved = 0
        used_inputs: set = set()
        for out_port in self.ports:
            bucket = buckets.get(out_port)
            if not bucket:
                continue
            out = self._out[out_port]
            if out.deliver is None:
                continue
            if used_inputs:
                # crossbar constraint: one flit per input port per cycle
                bucket = [r for r in bucket if r[1] not in used_inputs]
                if not bucket:
                    continue
            _slot, in_port, vc, out_vc = out.arbiter.pick_first(bucket)
            self._forward(in_port, vc, out_port, out_vc)
            used_inputs.add(in_port)
            moved += 1
        return moved

    def _allocation_pass_rescan(self) -> int:
        """Per-output-port rescan allocation (required for adaptive routing)."""
        moved = 0
        used_inputs: set = set()
        for out_port in self.ports:
            out = self._out[out_port]
            if out.deliver is None:
                continue
            requesters = self._requesters(out_port, used_inputs)
            if not requesters:
                # same as the arbiter seeing all-zero request lines: no
                # grant, pointer stays put
                continue
            _slot, in_port, vc, out_vc = out.arbiter.pick_first(requesters)
            self._forward(in_port, vc, out_port, out_vc)
            used_inputs.add(in_port)
            moved += 1
        return moved

    def _requesters(
        self, out_port: Port, used_inputs: set
    ) -> List[Tuple[int, Port, int, int]]:
        """Input VCs that can send a flit to ``out_port`` this cycle.

        Returns ``(arbiter_slot, in_port, in_vc, out_vc)`` tuples in
        ascending slot order (ports and VCs are walked in slot order), ready
        for :meth:`RoundRobinArbiter.pick_first`.
        """
        out = self._out[out_port]
        credits = out.credits
        found: List[Tuple[int, Port, int, int]] = []
        for in_port in self.ports:
            if in_port in used_inputs:
                continue
            base = self._port_base[in_port]
            for vc, ivc in enumerate(self._in[in_port]):
                if not ivc.buffer:
                    continue
                flit = ivc.buffer[0]
                if flit.is_head and ivc.out_port is None:
                    choice = self._route_and_allocate(in_port, vc, flit)
                    if choice is None:
                        continue
                    port_choice, out_vc = choice
                    if port_choice != out_port:
                        continue
                    found.append((base + vc, in_port, vc, out_vc))
                else:
                    if ivc.out_port != out_port or ivc.out_vc is None:
                        continue
                    if credits[ivc.out_vc] <= 0:
                        continue
                    found.append((base + vc, in_port, vc, ivc.out_vc))
        return found

    def _route_and_allocate(
        self, in_port: Port, vc: int, flit: Flit
    ) -> Optional[Tuple[Port, int]]:
        """Route computation + VC allocation for a head flit.

        Pure query: no state is mutated until the flit actually wins switch
        allocation (``_forward`` re-runs this and commits).
        """
        pkt = flit.packet
        # routing functions are pure in (node, dst): memoize per destination
        if self._adaptive and vc == 0:
            candidates = self._escape_cache.get(pkt.dst)
            if candidates is None:
                candidates = self.routing.escape_candidates(  # type: ignore[attr-defined]
                    self.topo, self.node, pkt.dst
                )
                self._escape_cache[pkt.dst] = candidates
        else:
            candidates = self._cand_cache.get(pkt.dst)
            if candidates is None:
                candidates = self.routing.candidates(self.topo, self.node, pkt.dst)
                self._cand_cache[pkt.dst] = candidates
        if self._dateline:
            return self._dateline_choice(pkt, candidates[0])
        cls = pkt.vc_class
        allowed = self._allowed[cls] if cls < self.vc_classes else self._allowed[-1]
        best: Optional[Tuple[Port, int]] = None
        best_credits = -1
        for port_choice in candidates:
            out = self._out[port_choice]
            if out.deliver is None:
                continue
            for out_vc in allowed:
                if self._adaptive and out_vc == 0 and port_choice != candidates[0]:
                    # escape VC only along the deterministic path
                    continue
                if out.vc_owner[out_vc] is not None:
                    continue
                if out.credits[out_vc] <= 0:
                    continue
                if out.credits[out_vc] > best_credits:
                    best = (port_choice, out_vc)
                    best_credits = out.credits[out_vc]
            if best is not None and not self._adaptive:
                break  # deterministic routing: first candidate only
        return best

    def _dateline_choice(self, pkt, out_port: Port) -> Optional[Tuple[Port, int]]:
        """VC selection under the dateline discipline (torus routing).

        A packet uses VC ``pkt.dateline_vc`` for the current dimension; the
        tier resets to 0 when the packet turns into a new dimension, and
        :meth:`_forward` bumps it to 1 when a hop crosses the wrap edge.
        LOCAL ejection may use either tier (whichever has space first).
        """
        out = self._out[out_port]
        if out.deliver is None:
            return None
        if out_port == Port.LOCAL:
            tiers = [pkt.dateline_vc, 1 - pkt.dateline_vc]
        else:
            dim = TorusXYRouting.dimension(out_port)
            tier = pkt.dateline_vc if dim == pkt.dateline_dim else 0
            tiers = [tier]
        for out_vc in tiers:
            if out.vc_owner[out_vc] is None and out.credits[out_vc] > 0:
                return out_port, out_vc
        return None

    def _forward(self, in_port: Port, vc: int, out_port: Port, out_vc: int) -> None:
        ivc = self._in[in_port][vc]
        flit = ivc.buffer.popleft()
        self._buffered -= 1
        out = self._out[out_port]

        if flit.is_head:
            ivc.out_port = out_port
            ivc.out_vc = out_vc
            ivc.active_pid = flit.packet.pid
            out.vc_owner[out_vc] = flit.packet.pid
        flit.vc = out_vc
        out.credits[out_vc] -= 1
        out.flits_sent += 1
        self._flits_forwarded += 1
        if flit.is_head and out_port != Port.LOCAL:
            flit.packet.hops += 1
            if self._dateline:
                pkt = flit.packet
                dim = TorusXYRouting.dimension(out_port)
                if dim != pkt.dateline_dim:
                    pkt.dateline_dim = dim
                    pkt.dateline_vc = 0
                if TorusXYRouting.crosses_wrap(self.topo, self.node, out_port):
                    pkt.dateline_vc = 1

        if flit.is_tail:
            out.vc_owner[out_vc] = None
            ivc.reset_route()

        assert out.deliver is not None
        out.deliver(flit)

        # A buffer slot on our input just freed: a credit goes upstream.
        credit_fn = self._credit_return[in_port]
        if credit_fn is not None:
            credit_fn(self.engine.now + self.credit_latency, vc)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Router {self.node} occ={self._buffered}>"
