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
* deterministic XY routing is deadlock-free on a mesh with any VC count;
* on a torus, :class:`~repro.noc.routing.TorusXYRouting` moves a packet to
  VC 1 after it crosses a wrap edge (dateline VCs), which breaks each
  ring's cyclic channel dependency.

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
from repro.noc.routing import TorusXYRouting, XYRouting
from repro.noc.topology import Mesh2D, Port

__all__ = ["Router", "InputVC", "OutputPort"]

#: LOCAL-link callback type: (flit) -> None, puts the flit on the wire to
#: the network interface.
DeliverFn = Callable[[Flit], None]
#: Credit-return callback type: (landing cycle, vc) -> None, puts a credit
#: on the wire back to the network interface.
CreditFn = Callable[[int, int], None]

#: "no step armed" (shared with the network interfaces)
NEVER = sys.maxsize


def _nothing() -> None:
    pass


class InputVC:
    """State of one (input port, virtual channel) buffer.

    ``bit``: its arbiter slot in a request mask; ``req_vc``: the output VC
    of its request in the current pass; ``up``: the router feeding its
    port and that router's output port — where the credit for a slot it
    frees goes (``None``: the LOCAL port, whose credit goes to the network
    interface).
    """

    __slots__ = ("buffer", "out_port", "out_vc", "active_pid", "port", "vc",
                 "bit", "req_vc", "up")

    def __init__(self, depth: int, port: Port, vc: int, slot: int):
        self.buffer: Deque[Flit] = deque(maxlen=depth)
        self.out_port: Optional[Port] = None
        self.out_vc: Optional[int] = None
        self.active_pid: Optional[int] = None
        self.port = port
        self.vc = vc
        self.bit = 1 << slot
        self.up: Optional[Tuple[Router, Port]] = None


class OutputPort:
    """Per-output-port state: downstream credits, VC ownership, the link.

    ``down`` / ``down_port``: the router the link feeds and its input port
    (``None``: the LOCAL port, whose link is ``deliver`` — the interface).
    """

    __slots__ = ("credits", "vc_owner", "deliver", "arbiter", "flits_sent",
                 "down", "down_port")

    def __init__(self, num_vcs: int, buffer_depth: int, slots: int):
        self.credits = [buffer_depth] * num_vcs
        self.vc_owner: List[Optional[int]] = [None] * num_vcs
        self.deliver: Optional[DeliverFn] = None
        self.arbiter = RoundRobinArbiter(slots)
        self.flits_sent = 0
        self.down: Optional[Router] = None


class Router:
    """One NoC router tile.

    Wiring (``connect_*``) is done by :class:`~repro.noc.network.Network`:
    a link to a neighbouring router is written directly — the grant puts
    the flit's row in the neighbour's inbox and the freed slot's credit row
    in the upstream router's; the LOCAL port talks to its network interface
    through callbacks only.
    """

    # slots, not an instance dict: a dict past 30 keys stops sharing keys,
    # and the step's attribute reads then cost a hash probe each (their
    # speed varied by a fifth with the interpreter's string-hash seed)
    __slots__ = (
        "engine", "node", "topo", "routing", "num_vcs", "vc_classes",
        "buffer_depth", "credit_latency", "name", "_dateline", "ports",
        "_port_base", "_in", "_scan", "_out", "_credit_return", "_hop",
        "_allowed", "_route", "_vc_bits", "_flits_in", "_credits_in",
        "_wake_at", "_moved_at", "_flits_forwarded", "_buffered",
        "stalled_until", "stalls_injected", "_sync",
    )

    def __init__(
        self,
        engine,
        node: int,
        topo: Mesh2D,
        routing: XYRouting | TorusXYRouting,
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
        self._port_base: Dict[Port, int] = {}
        self._in: Dict[Port, List[InputVC]] = {}
        #: every input VC in arbiter-slot order — the allocation pass walks
        #: this one prebuilt list, and a granted slot indexes it
        self._scan: List[InputVC] = []
        for p in self.ports:
            base = self._port_base[p] = len(self._scan)
            ivcs = self._in[p] = [InputVC(buffer_depth, p, vc, base + vc)
                                  for vc in range(num_vcs)]
            self._scan += ivcs
        self._out: Dict[Port, OutputPort] = {
            p: OutputPort(num_vcs, buffer_depth, slots) for p in self.ports
        }
        #: set by :meth:`connect_local`: the LOCAL input's credit wire
        self._credit_return: Optional[CreditFn] = None
        #: set by :meth:`connect_link`: the link latency
        self._hop = 0
        # hot-path tables, resolved once per router instead of per pass:
        # the VC set for each traffic class, and memoized routing decisions
        # (routing functions are pure in (node, dst), so per-destination
        # routes never change for a given router)
        self._allowed: List[List[int]] = [
            [v for v in range(num_vcs) if v % vc_classes == cls]
            for cls in range(vc_classes)
        ]
        self._route: Dict[int, Port] = {}
        #: one input port's slots in a request mask, at slot 0
        self._vc_bits = (1 << num_vcs) - 1

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

    def connect_link(self, port: Port, downstream: "Router",
                     hop_latency: int) -> None:
        """Wire output ``port`` to ``downstream``'s opposite input,
        ``hop_latency`` cycles away (every link of a network has the same
        latency): a grant writes that router's flit row itself, and the
        slot it frees there returns its credit to this router's inbox."""
        out = self._out[port]
        out.down = downstream
        out.down_port = port.opposite
        self._hop = hop_latency
        up = (self, port)
        for ivc in downstream._in[out.down_port]:
            ivc.up = up

    def connect_local(self, deliver: DeliverFn,
                      return_credit: CreditFn) -> None:
        """Attach the network interface: ``deliver`` takes each flit that
        leaves on the LOCAL port, ``return_credit`` the buffer credit of
        each flit that leaves the LOCAL input buffer."""
        self._out[Port.LOCAL].deliver = deliver
        self._credit_return = return_credit

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
        buffer = self._in[port][flit.vc].buffer
        if len(buffer) >= self.buffer_depth:
            self._overflow(port, flit.vc)
        buffer.append(flit)
        self._buffered += 1

    def _credit(self, port: Port, vc: int) -> None:
        credits = self._out[port].credits
        credits[vc] += 1
        if credits[vc] > self.buffer_depth:
            self._credit_overflow(port, vc)

    def _overflow(self, port: Port, vc: int) -> None:
        raise ConfigError(
            f"{self.name}: input buffer overflow on {port.name} vc{vc} at "
            f"cycle {self.engine.now} (credit protocol violated)"
        )

    def _credit_overflow(self, port: Port, vc: int) -> None:
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
        credits = self._out[Port.LOCAL].credits  # as _credit, without its call
        credits[vc] += 1
        if credits[vc] > self.buffer_depth:
            self._credit_overflow(Port.LOCAL, vc)
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
        if cycles < 1:
            raise ConfigError(
                f"{self.name}: a stall lasts >= 1 cycle, got {cycles}")
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
        # land what is due (as _land, inline: this runs every router-cycle)
        rows = self._flits_in
        if rows and rows[0][0] <= now:
            ins = self._in
            depth = self.buffer_depth
            landed = 0
            while rows and rows[0][0] <= now:
                _at, port, flit = rows.popleft()
                buffer = ins[port][flit.vc].buffer
                if len(buffer) >= depth:
                    self._overflow(port, flit.vc)
                buffer.append(flit)
                landed += 1
            self._buffered += landed
        credits_in = self._credits_in
        if credits_in and credits_in[0][0] <= now:
            outs = self._out
            depth = self.buffer_depth
            while credits_in and credits_in[0][0] <= now:
                _at, port, vc = credits_in.popleft()
                credits = outs[port].credits
                credits[vc] += 1
                if credits[vc] > depth:
                    self._credit_overflow(port, vc)
        wake = NEVER
        if self._buffered:
            if self._moved_at == now:
                wake = now + 1
            elif self._allocation_pass():
                self._moved_at = now
                if self._buffered:
                    wake = now + 1
            elif credits_in:
                wake = credits_in[0][0]
        if rows and rows[0][0] < wake:
            wake = rows[0][0]
        # arm the next step (as _arm: past any stall, as now is, and not
        # before now, so only a wake already due earlier supersedes it)
        if wake < self._wake_at:
            self._wake_at = wake
            self.engine.schedule(wake - now, self._run)

    def _allocation_pass(self) -> int:
        """One switch-allocation cycle; returns the number of flits moved.

        Requests are bitmasks, one per output port (bit = arbiter slot; a
        requester's output VC is its input VC's ``req_vc``), and each
        output port in turn grants one slot by the arbiter's round-robin
        rule, minus the slots of inputs already granted this pass (the
        crossbar constraint: one flit per input port per cycle).

        Routing is deterministic (XY/YX/dateline): one output port per
        destination, so an input VC's request — its (output port, output
        VC) pair — cannot be altered by grants on *other* output ports
        within the pass: a grant only mutates state on its own output port
        and on an input that is then excluded anyway.  So the input buffers
        are scanned once, up front, into every port's mask — the grants of
        a per-port rescan.
        """
        outs = self._out
        scan = self._scan
        masks = [0, 0, 0, 0, 0]  # per output port, indexed by Port value
        route = self._route
        for ivc in scan:
            buffer = ivc.buffer
            if not buffer:
                continue
            out_port = ivc.out_port
            if out_port is None:
                # an unrouted VC only requests when a head flit is at the
                # front (body flits behind a reset route wait)
                flit = buffer[0]
                if not flit.is_head:
                    continue
                pkt = flit.packet
                out_port = route.get(pkt.dst)
                if out_port is None:
                    out_port = self._route_to(pkt.dst)
                if self._dateline:
                    out_vc = self._dateline_choice(pkt, out_port)
                    if out_vc is None:
                        continue
                else:
                    # VC allocation: the free VC of the packet's class with
                    # the most credits (the first on a tie)
                    out = outs[out_port]
                    credits = out.credits
                    owner = out.vc_owner
                    cls = pkt.vc_class
                    out_vc = -1
                    best = 0
                    for vc in (self._allowed[cls] if cls < self.vc_classes
                               else self._allowed[-1]):
                        if credits[vc] > best and owner[vc] is None:
                            out_vc = vc
                            best = credits[vc]
                    if out_vc < 0:
                        continue
            else:
                out_vc = ivc.out_vc
                if outs[out_port].credits[out_vc] <= 0:
                    continue
            masks[out_port] |= ivc.bit
            ivc.req_vc = out_vc

        now = self.engine.now
        arrival = now + self._hop
        landing = now + self.credit_latency
        moved = 0
        used = 0  # slots of the input ports granted so far this pass
        for out_port in self.ports:
            mask = masks[out_port]
            if not mask:
                continue
            if used:
                mask &= ~used
                if not mask:
                    continue
            out = outs[out_port]
            slot = out.arbiter.grant(mask)
            ivc = scan[slot]
            vc = ivc.vc
            used |= self._vc_bits << (slot - vc)
            out_vc = ivc.req_vc
            moved += 1

            # the grant: switch the flit, commit a head's route and VC,
            # release them with the tail
            flit = ivc.buffer.popleft()
            self._buffered -= 1
            if flit.is_head:
                pkt = flit.packet
                ivc.out_port = out_port
                ivc.out_vc = out_vc
                ivc.active_pid = out.vc_owner[out_vc] = pkt.pid
                if out_port is not Port.LOCAL:
                    pkt.hops += 1
                    if self._dateline:
                        self._cross(pkt, out_port)
            if flit.is_tail:
                out.vc_owner[out_vc] = None
                ivc.out_port = ivc.out_vc = ivc.active_pid = None
            flit.vc = out_vc
            out.credits[out_vc] -= 1
            out.flits_sent += 1

            # the flit onto its wire: one hop latency on every link keeps
            # each inbox in landing order by construction — append, and
            # arm the receiver by one compare
            down = out.down
            if down is None:
                out.deliver(flit)
            else:
                down._flits_in.append((arrival, out.down_port, flit))
                if arrival < down._wake_at:
                    down._arm(arrival)

            # the input slot it freed: a credit goes upstream
            up = ivc.up
            if up is None:
                self._credit_return(landing, vc)
            else:
                router, port = up
                router._credits_in.append((landing, port, vc))
                # a credit can only unblock a flit: an empty router with
                # nothing inbound sleeps on and lands the row when it next
                # steps
                if landing < router._wake_at and (router._buffered
                                                  or router._flits_in):
                    router._arm(landing)
        self._flits_forwarded += moved
        return moved

    def _route_to(self, dst: int) -> Port:
        """Deterministic route to ``dst``, memoised (routing functions are
        pure in ``(node, dst)``)."""
        port = self.routing.route(self.topo, self.node, dst)
        self._route[dst] = port
        return port

    def _dateline_choice(self, pkt, out_port: Port) -> Optional[int]:
        """VC selection under the dateline discipline (torus routing).

        A packet uses VC ``pkt.dateline_vc`` for the current dimension; the
        tier resets to 0 when the packet turns into a new dimension, and
        :meth:`_cross` bumps it to 1 when a hop crosses the wrap edge.
        LOCAL ejection may use either tier (whichever has space first).
        """
        out = self._out[out_port]
        if out_port == Port.LOCAL:
            tiers = [pkt.dateline_vc, 1 - pkt.dateline_vc]
        else:
            dim = TorusXYRouting.dimension(out_port)
            tier = pkt.dateline_vc if dim == pkt.dateline_dim else 0
            tiers = [tier]
        for out_vc in tiers:
            if out.vc_owner[out_vc] is None and out.credits[out_vc] > 0:
                return out_vc
        return None

    def _cross(self, pkt, out_port: Port) -> None:
        """Dateline bookkeeping of a head leaving on ``out_port``: a new
        dimension starts on tier 0, a wrap-edge hop moves to tier 1."""
        dim = TorusXYRouting.dimension(out_port)
        if dim != pkt.dateline_dim:
            pkt.dateline_dim = dim
            pkt.dateline_vc = 0
        if TorusXYRouting.crosses_wrap(self.topo, self.node, out_port):
            pkt.dateline_vc = 1

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Router {self.node} occ={self._buffered}>"
