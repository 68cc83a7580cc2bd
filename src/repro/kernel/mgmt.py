"""The management plane: naming, capability policy, tile lifecycle.

The management plane is part of Apiary's trusted static framework (like the
monitors): it owns the logical-name table every monitor resolves against,
mints root capabilities, screens and loads bitstreams into tile slots, and
executes the operator-level policies (which apps may talk to which).

Per Section 4.1 we deliberately do *not* implement a placement/scheduling
policy for which accelerator goes into which slot — the paper defers that
to AmorphOS/Coyote.  Callers name the target tile explicitly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, Union

from repro.cap.capability import CapabilityRef, Rights
from repro.cap.captable import CapabilityStore
from repro.errors import ConfigError, TileFault
from repro.kernel.naming import Namespace
from repro.kernel.tile import Tile
from repro.obs.span import SpanRecorder
from repro.sim import Engine, Event, StatsRegistry

__all__ = ["MgmtPlane"]


class MgmtPlane:
    """Trusted management logic for one Apiary system."""

    def __init__(
        self,
        engine: Engine,
        caps: CapabilityStore,
        name_table: Union[Namespace, Dict[str, int]],
        tiles: List[Tile],
        stats: Optional[StatsRegistry] = None,
        spans: Optional[SpanRecorder] = None,
    ):
        self.engine = engine
        self.caps = caps
        # accept either the namespace or a raw dict (older call sites);
        # both wrap the same underlying table the monitors resolve against
        self.namespace = name_table if isinstance(name_table, Namespace) \
            else Namespace(name_table)
        self.tiles = tiles
        self.stats = stats if stats is not None else StatsRegistry()
        #: shared span recorder (disabled by default, so emits are free);
        #: load/teardown/migrate open spans here, parented under whatever
        #: ``trace=(trace_id, span_id)`` the caller (e.g. the scheduler)
        #: passes, so control-plane work shows up in Chrome trace exports
        self.spans = spans if spans is not None else SpanRecorder()
        #: endpoints considered OS services: new tiles are auto-wired to them
        self.service_endpoints: List[str] = []
        #: (holder, endpoint) pairs granted via grant_send — the policy-level
        #: record that lets recovery re-mint a failed-over tile's authority
        self.send_grants: Set[Tuple[str, str]] = set()
        #: optional TelemetrySampler (see attach_sampler); when attached,
        #: telemetry() merges its latest ring-buffer samples per tile
        self.sampler = None
        #: optional BoardBitstreamStore (see attach_bitstore); when
        #: attached, load() goes through the compile-and-cache pipeline
        #: instead of handing raw bitstreams straight to the region
        self.bitstore = None

    # -- naming (the per-tile tables of Section 4.3) ---------------------------

    def register_endpoint(self, name: str, node: int) -> None:
        if not 0 <= node < len(self.tiles):
            raise ConfigError(f"no tile {node}")
        self.namespace.bind(name, node)
        self.spans.event(self.engine.now, "mgmt.register", "mgmt",
                         name=name, node=node)

    def unregister_endpoint(self, name: str) -> None:
        self.namespace.unbind(name)

    # -- capability policy ---------------------------------------------------------

    def grant_send(self, holder: str, endpoint: str) -> CapabilityRef:
        """Authorize ``holder`` to message ``endpoint`` (operator policy).

        This is how "distrusting applications ... specifically establish
        interprocess communication" (Section 4.2): nothing talks to anything
        without an explicit grant.
        """
        ref = self.caps.mint(holder, Rights.SEND, endpoint=endpoint)
        self.send_grants.add((holder, endpoint))
        self.spans.event(self.engine.now, "mgmt.grant_send", "mgmt",
                         holder=holder, endpoint=endpoint)
        return ref

    def connect(self, a: str, b: str) -> None:
        """Bidirectional SEND authorization between two endpoints."""
        self.grant_send(a, b)
        self.grant_send(b, a)

    def revoke_endpoint_caps(self, holder: str) -> int:
        return self.caps.revoke_holder(holder)

    def grants_of(self, holder: str) -> List[str]:
        """Endpoints ``holder`` was granted SEND to, in stable order."""
        return sorted(ep for h, ep in self.send_grants if h == holder)

    # -- tile lifecycle ----------------------------------------------------------------

    def _open_span(self, name: str,
                   trace: Optional[Tuple[int, int]],
                   **detail) -> Tuple[int, int]:
        """Open a management-plane span; ``(0, 0)`` when tracing is off.

        ``trace=(trace_id, parent_span)`` nests the span under the caller's
        decision (the scheduler passes its own span here); without it the
        operation roots a fresh trace, so standalone mgmt calls still show
        up in exports.
        """
        if not self.spans.enabled:
            return (0, 0)
        if trace:
            tid, parent = trace
        else:
            tid, parent = self.spans.new_trace(), 0
        sid = self.spans.open(tid, name, "mgmt", "mgmt", self.engine.now,
                              parent_id=parent, **detail)
        return (tid, sid)

    def load(
        self,
        node: int,
        accelerator,
        endpoint: Optional[str] = None,
        signed_by: Optional[str] = None,
        wire_services: bool = True,
        trace: Optional[Tuple[int, int]] = None,
        artifact=None,
    ) -> Event:
        """Load an accelerator into tile ``node`` and wire default caps.

        Registers ``endpoint`` (defaults to the tile's own name) in the name
        table, grants the tile SEND to every OS service, and grants each OS
        service SEND back (for notifications like ``net.rx``).

        This is the single deployment entry point for both input shapes:
        a raw accelerator (its bitstream is packaged on the fly) or a
        pre-compiled :class:`~repro.hw.compile.BitstreamArtifact` passed
        via ``artifact``.  An artifact carries its own provenance and DRC
        screen, so passing ``signed_by`` with one is a :class:`ConfigError`.

        With a bitstream store attached (:meth:`attach_bitstore`) and no
        artifact, the load first acquires the artifact from the board's
        cache — free when warm, a full synthesis run when cold — and the
        tile stays *reserved* (invisible to :meth:`free_tiles`) while the
        compile is in flight.  Without a store, the legacy direct path is
        taken unchanged.
        """
        if artifact is not None and signed_by is not None:
            raise ConfigError(
                "pass signed_by= or artifact=, not both: an artifact "
                "carries its own signer")
        tile = self.tiles[node]
        _tid, span = self._open_span(
            f"mgmt.load:{endpoint or tile.endpoint}", trace,
            node=node, accelerator=accelerator.name)
        if endpoint is not None:
            self.register_endpoint(endpoint, node)
        tile.deployed_endpoint = endpoint if endpoint is not None \
            else tile.endpoint
        if wire_services:
            for svc in self.service_endpoints:
                self.grant_send(tile.endpoint, svc)
                svc_tile = self.tiles[self.namespace.lookup(svc)]
                self.grant_send(svc_tile.endpoint, tile.endpoint)
        if artifact is None and self.bitstore is None:
            started = tile.start(accelerator, signed_by=signed_by)
        else:
            started = self._start_from_artifact(
                tile, accelerator, signed_by, artifact)
        self.stats.counter("mgmt.loads").inc()
        if span:
            started.add_callback(
                lambda ev: self.spans.close(span, self.engine.now,
                                            failed=ev.failed))
        return started

    def _start_from_artifact(self, tile, accelerator, signed_by,
                             artifact) -> Event:
        """The compile-pipeline load path: acquire artifact, then start.

        The tile is reserved for the whole acquire+start window so
        placement never double-assigns a slot whose region is still idle
        only because its bitstream is mid-synthesis.
        """
        started = self.engine.event(f"{tile.endpoint}.load")
        tile.reserved = True

        def finish(ev: Event) -> None:
            tile.reserved = False
            if ev.failed:
                started.fail(ev.value)
            else:
                started.succeed(ev.value)

        def begin(art) -> None:
            if tile.failed:
                # the board (or this tile) died while the bitstream was
                # in synthesis; the artifact stays cached, the load aborts
                tile.reserved = False
                started.fail(TileFault(
                    f"{tile.endpoint}: tile failed during synthesis"))
                return
            tile.start(accelerator, signed_by=signed_by,
                       artifact=art).add_callback(finish)

        if artifact is not None:
            begin(artifact)
        else:
            acquired = self.bitstore.acquire(
                accelerator.bitstream(signed_by=signed_by))

            def on_acquired(ev: Event) -> None:
                if ev.failed:
                    tile.reserved = False
                    started.fail(ev.value)
                    return
                begin(ev.value)

            acquired.add_callback(on_acquired)
        return started

    def load_service(self, node: int, service, endpoint: str) -> Event:
        """Load an OS service and record it for default wiring."""
        started = self.load(node, service, endpoint=endpoint,
                            wire_services=False)
        if endpoint not in self.service_endpoints:
            self.service_endpoints.append(endpoint)
        return started

    # -- observability ----------------------------------------------------------

    def attach_sampler(self, sampler) -> None:
        """Attach a :class:`~repro.obs.telemetry.TelemetrySampler`.

        Subsequent :meth:`telemetry` calls merge each tile's latest sampled
        time-series values (inject backlog, buffered flits, ...) into the
        live monitor snapshot.
        """
        self.sampler = sampler

    def attach_bitstore(self, store) -> None:
        """Attach a :class:`~repro.cluster.bitcache.BoardBitstreamStore`.

        Subsequent :meth:`load` calls route through the compile-and-cache
        pipeline, and :meth:`telemetry` gains the board's cache gauges.
        """
        self.bitstore = store

    def telemetry(self) -> List[Dict[str, float]]:
        """Per-tile traffic/health snapshots from every monitor.

        This is the operator's view of the message-passing layer — the
        observability the Programmability design goal asks for, available
        precisely because everything crosses a monitor.
        """
        snaps = []
        for tile in self.tiles:
            snap = tile.monitor.telemetry()
            region = tile.region
            # slot occupancy accounting: how much of this tile's life went
            # to reconfiguration (the scheduler's overhead) and whether the
            # slot currently holds a bitstream
            snap["region_occupied"] = 1.0 if region.occupied else 0.0
            snap["region_reconfigs"] = float(region.reconfig_count)
            snap["region_busy_cycles"] = float(region.busy_cycles_total)
            snaps.append(snap)
        if self.sampler is not None:
            for node, snap in enumerate(snaps):
                snap.update(self.sampler.latest(node))
        if self.bitstore is not None:
            # board-level cache gauges, mirrored into every tile snapshot
            # (the store is per board, tiles share it)
            cache = self.bitstore.telemetry()
            for snap in snaps:
                snap["bitcache_hit_rate"] = cache["hit_rate"]
                snap["bitcache_prefetch_accuracy"] = \
                    cache["prefetch_accuracy"]
                snap["bitcache_synth_backlog"] = cache["synth_backlog"]
        return snaps

    def police_rates(self, tx_threshold: float,
                     limit_flits_per_cycle: float) -> List[str]:
        """Closed-loop policing: throttle tiles exceeding a tx-rate budget.

        Returns the endpoints that were throttled.  Tiles hosting OS
        services are exempt (they forward other tenants' traffic).
        """
        throttled = []
        service_nodes = {self.namespace.lookup(s)
                         for s in self.service_endpoints}
        for node, tile in enumerate(self.tiles):
            if node in service_nodes:
                continue
            snap = tile.monitor.telemetry()
            if snap["tx_flits_per_cycle"] > tx_threshold and not snap["rate_limited"]:
                self.set_rate_limit(node, limit_flits_per_cycle)
                throttled.append(tile.endpoint)
        return throttled

    def set_rate_limit(self, node: int, flits_per_cycle: Optional[float],
                       burst: int = 32) -> None:
        """Throttle (or unthrottle) one tile's NoC injection rate."""
        self.tiles[node].monitor.set_rate_limit(flits_per_cycle, burst=burst)
        self.spans.event(self.engine.now, "mgmt.rate_limit", "mgmt",
                         node=node, rate=flits_per_cycle)

    def fail_stop(self, node: int) -> None:
        """Operator-initiated kill of a tile."""
        self.tiles[node].fail_stop()
        self.stats.counter("mgmt.fail_stops").inc()

    def free_tiles(self) -> List[int]:
        """Nodes whose slot is empty and idle — candidates for placement."""
        return [node for node, tile in enumerate(self.tiles) if tile.free]

    def teardown(self, node: int,
                 trace: Optional[Tuple[int, int]] = None) -> Event:
        """Stop a tile, revoke its authority, and free the slot."""
        tile = self.tiles[node]
        _tid, span = self._open_span(f"mgmt.teardown:{tile.endpoint}", trace,
                                     node=node)
        self.revoke_endpoint_caps(tile.endpoint)
        self.send_grants = {
            g for g in self.send_grants if g[0] != tile.endpoint
        }
        # remove any extra endpoint names pointing at this tile
        for name in self.namespace.names_at(node):
            if name != tile.endpoint:
                self.unregister_endpoint(name)
        tile.deployed_endpoint = None
        done = tile.stop_and_unload()
        if span:
            done.add_callback(
                lambda ev: self.spans.close(span, self.engine.now,
                                            failed=ev.failed))
        return done

    def restart(self, node: int, accelerator, endpoint: Optional[str] = None):
        """Process generator: tear down and reload a tile (recovery path)."""
        yield self.teardown(node)
        yield self.load(node, accelerator, endpoint=endpoint)

    def migrate(self, node_from: int, node_to: int, make_accelerator,
                endpoint: Optional[str] = None,
                trace: Optional[Tuple[int, int]] = None):
        """Process generator: move a preemptible accelerator to another tile.

        Section 4.4's preemption payoff, end to end: the source accelerator
        is preempted (its main process interrupted), its externalized
        architectural state captured, the source tile torn down, and a
        fresh instance (from ``make_accelerator``) restored from that state
        on the destination tile.  ``endpoint`` names re-register at the new
        tile, so peers keep calling the same logical name.

        Limitations (documented, matching the capability model): memory
        capabilities are *per-holder*, so the old tile's segments are
        revoked at teardown — state that must survive migration belongs in
        ``externalize_state``, exactly as the paper's context definition
        implies.  Returns the new accelerator instance.
        """
        source = self.tiles[node_from]
        if source.accelerator is None:
            raise ConfigError(f"tile {node_from} runs nothing to migrate")
        if not source.accelerator.preemptible:
            raise ConfigError(
                f"{source.accelerator.name!r} is not preemptible; only "
                "accelerators that externalize state can migrate (§4.4)"
            )
        dest = self.tiles[node_to]
        if not dest.free:
            # checked *before* the source is torn down: a migration must
            # never destroy the only running copy just to discover its
            # destination was taken
            raise ConfigError(
                f"tile {node_to} is not free; migrate needs an empty, "
                "idle destination slot"
            )
        if endpoint is None:
            extra = [n for n in self.namespace.names_at(node_from)
                     if n != source.endpoint]
            endpoint = extra[0] if extra else None
        tid, span = self._open_span(
            f"mgmt.migrate:{endpoint or source.endpoint}", trace,
            src=node_from, dst=node_to)
        child = (tid, span) if span else trace
        failed = True
        try:
            state = source.accelerator.externalize_state()
            # include the contexts the fault manager parked on the tile
            # for the migrating deployment (other tenants' stay behind)
            state.update(source.claim_contexts(source.deployed_endpoint))
            yield self.teardown(node_from, trace=child)
            replacement = make_accelerator()
            replacement.restore_state(state)
            yield self.load(node_to, replacement, endpoint=endpoint,
                            trace=child)
            failed = False
        finally:
            if span:
                self.spans.close(span, self.engine.now, failed=failed)
        self.stats.counter("mgmt.migrations").inc()
        self.spans.event(self.engine.now, "mgmt.migrate", "mgmt",
                         src=node_from, dst=node_to, endpoint=endpoint)
        return replacement
