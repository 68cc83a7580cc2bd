"""ApiarySystem: the assembled hardware OS (Figure 1 in code).

Builds the whole stack on one simulated FPGA: the NoC, one monitor + shell
+ reconfigurable slot per tile, the capability store and segment table, the
management plane, and — on request — the memory and network services on
tiles of their own.  Also provides :func:`build_figure1`, the exact
configuration the paper's Figure 1 draws, used by the F1 experiment.

Construction takes one typed, validated config object (see
:mod:`repro.kernel.config`) plus the runtime objects the board shares with
the rest of the simulation::

    ApiarySystem(SystemConfig(noc=NocConfig(width=4, height=4)),
                 engine=engine, fabric=fabric)

The cluster layer derives per-FPGA variants from one base config with
:func:`dataclasses.replace`.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.cap.captable import CapabilityStore
from repro.errors import ConfigError
from repro.hw.bitstream import DesignRuleChecker
from repro.hw.device import FpgaPart, part as lookup_part
from repro.hw.region import ReconfigRegion
from repro.hw.resources import ResourceBudget, ResourceVector, monitor_cost, router_cost
from repro.kernel.config import SystemConfig
from repro.kernel.fault import FaultManager
from repro.kernel.mgmt import MgmtPlane
from repro.kernel.monitor import Monitor
from repro.kernel.naming import Namespace
from repro.kernel.recovery import RecoveryManager
from repro.kernel.services import (
    HundredGigAdapter,
    MemoryService,
    NetworkService,
    TenGigAdapter,
)
from repro.kernel.tile import Tile
from repro.mem.dram import Dram
from repro.mem.segment import SegmentTable
from repro.net.ethernet import HundredGigMac, TenGigMac
from repro.net.frame import EthernetFabric
from repro.noc.network import Network
from repro.noc.topology import Mesh2D
from repro.obs.index import SpanIndex
from repro.obs.span import SpanRecorder
from repro.obs.telemetry import TelemetrySampler
from repro.sim import Engine, Event, RngPool, StatsRegistry

__all__ = ["ApiarySystem", "build_figure1"]

#: capability-table slots per holder: what each monitor is priced with
#: and what the capability store enforces
MONITOR_CAP_SLOTS = 64

#: virtual channels per router port.  One keeps a pair's packets in
#: injection order by construction
#: (``tests/test_noc_network.py::test_one_pair_is_delivered_in_injection_order``;
#: a second lets a packet overtake the one before it).  The router is still
#: priced as the 2-VC IP (``hw.resources.ROUTER_VCS``)
NOC_VCS = 1
#: cycles a flit takes from one router to the next
NOC_HOP_LATENCY = 2
#: bytes of the DRAM device behind the memory service
DRAM_CAPACITY = 1 << 30


class ApiarySystem:
    """One direct-attached FPGA running Apiary.

    Everything that shapes the board lives in ``config``.  Runtime
    *objects* are keyword-only: ``engine`` (shared clock), ``fabric`` (the
    datacenter segment this board plugs into), ``spans`` (a shared span
    recorder, so a cluster's systems record one causal trace), and ``drc``
    (bitstream screening).
    """

    def __init__(
        self,
        config: SystemConfig = SystemConfig(),
        *,
        engine: Optional[Engine] = None,
        fabric: Optional[EthernetFabric] = None,
        spans: Optional[SpanRecorder] = None,
        drc: Optional[DesignRuleChecker] = None,
    ):
        if fabric is not None:
            config.validate_attached()
        self.config = config
        noc, mem, net = config.noc, config.mem, config.net

        self.engine = engine or Engine()
        self.rng = RngPool(seed=config.seed)
        self.stats = StatsRegistry()
        #: one system-wide recorder of spans and events; the network, every
        #: monitor (which inherits via its NI), the management plane and
        #: the DRAM device all share it so a request's spans land in a
        #: single causal trace and every occurrence in one log.  A cluster
        #: passes one recorder to all its systems, making traces cross-FPGA.
        self.spans = spans if spans is not None else SpanRecorder()
        #: this board's message-id allocator, handed to every tile's shell:
        #: ids are per-board, so what a board allocates depends only on
        #: its own behaviour — not on other boards, on which process it
        #: executes in, or on what ran earlier in this one
        self.mids = itertools.count(1)
        self.part: FpgaPart = lookup_part(config.part_name)
        self.topo = Mesh2D(noc.width, noc.height)
        self.enforce = config.fault.enforce
        self.network = Network(
            self.engine, self.topo,
            num_vcs=NOC_VCS,
            buffer_depth=noc.buffer_depth, hop_latency=NOC_HOP_LATENCY,
            flit_bytes=noc.flit_bytes,
            stats=self.stats, spans=self.spans,
        )
        self.caps = CapabilityStore(slots_per_holder=MONITOR_CAP_SLOTS)
        self.segments = SegmentTable()
        self.namespace = Namespace()
        #: the raw name table monitors resolve against; shared in place
        #: with :attr:`namespace` — policy code goes through the namespace
        self.name_table: Dict[str, int] = self.namespace.table
        self.fault_manager = FaultManager(self.engine,
                                          policy=config.fault.policy,
                                          stats=self.stats)
        self.drc = drc

        # resource budgeting: routers + monitors are the static framework
        self.budget = ResourceBudget(self.part)
        tiles = self.topo.node_count
        r_cost = router_cost(buffer_depth=noc.buffer_depth,
                             hardened=self.part.hardened_noc)
        m_cost = monitor_cost(cap_table_size=MONITOR_CAP_SLOTS,
                              rate_limited=noc.rate_limit_flits is not None)
        for node in range(tiles):
            self.budget.allocate(f"apiary.router{node}", r_cost)
            self.budget.allocate(f"apiary.monitor{node}", m_cost)
        free = self.budget.free
        self.slot_capacity = ResourceVector(
            logic_cells=free.logic_cells // tiles,
            bram_kb=free.bram_kb // tiles,
            dsp_slices=free.dsp_slices // tiles,
        )

        self.tiles: List[Tile] = []
        for node in range(tiles):
            monitor = Monitor(
                self.engine,
                tile_name=f"tile{node}",
                ni=self.network.interface(node),
                caps=self.caps,
                segments=self.segments,
                name_table=self.name_table,
                enforce=config.fault.enforce,
                rate_limit_flits_per_cycle=noc.rate_limit_flits,
                cap_table_size=MONITOR_CAP_SLOTS,
                stats=self.stats,
            )
            region = ReconfigRegion(self.engine, self.slot_capacity,
                                    drc=drc, name=f"slot{node}",
                                    stats=self.stats)
            self.tiles.append(Tile(self.engine, node, monitor, region,
                                   fault_manager=self.fault_manager,
                                   mids=self.mids))

        self.mgmt = MgmtPlane(self.engine, self.caps, self.namespace,
                              self.tiles, stats=self.stats,
                              spans=self.spans)
        for node in range(tiles):
            self.mgmt.register_endpoint(f"tile{node}", node)

        # OS services
        self.dram: Optional[Dram] = None
        self.mem_service: Optional[MemoryService] = None
        self._boot_events: List[Event] = []
        if mem.enabled:
            self.dram = Dram(self.engine, channels=mem.dram_channels,
                             capacity_bytes=DRAM_CAPACITY,
                             timing=mem.dram_timing)
            self.dram.spans = self.spans
            self.mem_service = MemoryService("svc.mem", self.dram, self.caps,
                                             self.segments)
            self._boot_events.append(
                self.mgmt.load_service(mem.tile, self.mem_service, "svc.mem")
            )

        self.net_service: Optional[NetworkService] = None
        self.mac = None
        if fabric is not None:
            if net.mac_kind == "100g":
                self.mac = HundredGigMac(self.engine, fabric, net.mac_addr)
                adapter = HundredGigAdapter(self.mac)
            elif net.mac_kind == "10g":
                self.mac = TenGigMac(self.engine, fabric, net.mac_addr)
                adapter = TenGigAdapter(self.mac)
            else:  # pragma: no cover - config validation rejects earlier
                raise ConfigError(f"unknown MAC kind {net.mac_kind!r}")
            self.net_service = NetworkService("svc.net", adapter)
            self._boot_events.append(
                self.mgmt.load_service(net.tile, self.net_service, "svc.net")
            )

        self.recovery: Optional[RecoveryManager] = None
        self.sampler: Optional[TelemetrySampler] = None
        self.scheduler = None
        self.flight: Optional["FlightRecorder"] = None
        self.bitstore = None

    # -- observability -----------------------------------------------------------

    def enable_tracing(self) -> SpanRecorder:
        """Turn on span and event recording system-wide.

        Until this is called every span emit site short-circuits on
        ``spans.enabled`` and ``spans.event`` keeps nothing, so untraced
        runs pay nothing.
        """
        self.spans.enable()
        return self.spans

    def enable_telemetry(self, interval: int = 1000) -> TelemetrySampler:
        """Start the periodic telemetry sampler and attach it to mgmt.

        Samples per-tile monitor counters, per-router buffered flits / flit
        rates (the NoC heatmap), and DRAM queue depth every ``interval``
        cycles into ring buffers of 512 samples.
        """
        if self.sampler is not None:
            raise ConfigError("telemetry is already enabled")
        self.sampler = TelemetrySampler(
            self.engine, tiles=self.tiles, network=self.network,
            dram=self.dram, interval=interval,
        )
        self.sampler.start()
        self.mgmt.attach_sampler(self.sampler)
        return self.sampler

    def enable_flight_recorder(self, board: Optional[str] = None,
                               dump_dir: Optional[str] = None
                               ) -> "FlightRecorder":
        """Attach an always-on flight recorder to this system.

        The recorder is a sink on this board's span recorder: it rings
        the most recent closed spans (when tracing is enabled) and every
        event — fault containments, chaos injections, recovery actions —
        and dumps a validated JSON document automatically when a fault
        fires (see :mod:`repro.obs.flight`).  Idempotent per system; a
        cluster enables one per board.
        """
        if self.flight is not None:
            return self.flight
        from repro.obs.flight import FlightRecorder
        self.flight = FlightRecorder(
            board=board if board is not None else "board0",
            dump_dir=dump_dir)
        self.spans.attach_flight(self.flight)
        # the fault itself arrives as the manager's ``fault.contained``
        # event; this hook only freezes the ring that now holds it
        self.fault_manager.on_fault.append(
            lambda tile, record: self.flight.dump(
                self.engine.now, f"fault:{record.tile}:{record.action}"))
        return self.flight

    def span_index(self) -> SpanIndex:
        """A :class:`SpanIndex` over everything recorded so far."""
        return SpanIndex(self.spans)

    # -- convenience -------------------------------------------------------------

    def enable_recovery(
        self,
        spares: Optional[List[int]] = None,
        prefer_spare: bool = False,
    ) -> RecoveryManager:
        """Attach a :class:`RecoveryManager` to this system's fault feed.

        Call once, after construction; deploy services that must survive
        faults through :meth:`deploy` (or ``system.recovery.deploy(...)``
        to name the tile and signer).  It starts no process: it acts only
        when the fault manager reports a drained tile.
        """
        if self.recovery is not None:
            raise ConfigError("recovery is already enabled")
        self.recovery = RecoveryManager(
            self.engine, self.mgmt, self.fault_manager,
            spares=spares, prefer_spare=prefer_spare, stats=self.stats,
        )
        return self.recovery

    def enable_bitstream_cache(self, board: Optional[str] = None):
        """Attach a per-board bitstream compile-and-cache pipeline.

        All subsequent ``mgmt.load`` calls route through the board's
        :class:`~repro.cluster.bitcache.BoardBitstreamStore`: cold designs
        pay a realistic synthesis cost once, warm designs reconfigure
        straight from the content-addressed artifact cache.  The store
        reuses this system's DRC (screening moves to compile time, once
        per artifact) and stats registry (cache counters merge with
        everything else).
        """
        from repro.cluster.bitcache import BoardBitstreamStore  # cyclic

        if self.bitstore is not None:
            raise ConfigError("bitstream cache is already enabled")
        self.bitstore = BoardBitstreamStore(
            self.engine,
            drc=self.drc,
            stats=self.stats,
            board=board if board is not None else "fpga0",
        )
        self.mgmt.attach_bitstore(self.bitstore)
        return self.bitstore

    def enable_scheduler(self, quotas=None):
        """Attach a :class:`~repro.sched.TileScheduler` to this system.

        The scheduler owns tile placement from then on: submit
        :class:`~repro.sched.JobSpec` work through ``system.scheduler``
        instead of naming tiles via :meth:`start_app`.
        """
        from repro.sched import TileScheduler  # avoid a cyclic import

        if self.scheduler is not None:
            raise ConfigError("scheduler is already enabled")
        self.scheduler = TileScheduler(self, quotas=quotas)
        return self.scheduler

    def boot(self, extra_cycles: int = 5000) -> None:
        """Run until the OS services are loaded and brought up."""
        for ev in self._boot_events:
            self.engine.run_until_done(ev, limit=10_000_000)
        self.engine.run(until=self.engine.now + extra_cycles)

    def start_app(self, node: int, accelerator,
                  endpoint: Optional[str] = None,
                  signed_by: Optional[str] = None) -> Event:
        """Load a user accelerator (with default service wiring)."""
        return self.mgmt.load(node, accelerator, endpoint=endpoint,
                              signed_by=signed_by)

    def deploy(self, factory, endpoint: str, *,
               delegate: Optional[str] = None):
        """Put ``factory()`` on the lowest free tile under ``endpoint``:
        the one way the cluster layer fills a slot.  With recovery armed
        the deployment is kept alive (``delegate`` names a subsystem that
        repairs it instead); without, it is a plain ``mgmt.load``.
        Returns ``(node, load_started)``, ``(-1, failed)`` if none is free.
        """
        free = self.mgmt.free_tiles()
        if not free:
            return -1, self.engine.event(f"{endpoint}.load").fail(
                ConfigError(f"no free tile for {endpoint!r}"))
        node = free[0]
        if self.recovery is not None:
            return node, self.recovery.deploy(
                node, factory, endpoint=endpoint, delegate=delegate)
        return node, self.mgmt.load(node, factory(), endpoint=endpoint)

    def forget(self, endpoint: str) -> None:
        """Stop keeping ``endpoint`` alive (before an intended teardown)."""
        if self.recovery is not None:
            self.recovery.forget(endpoint)

    def apiary_overhead_fraction(self) -> float:
        """Share of the device's logic the static framework consumes (D4)."""
        return self.budget.share_of_device("apiary.")

    def run(self, until: Optional[int] = None) -> None:
        self.engine.run(until=until)

    def run_until(self, event: Event, limit: int = 10_000_000):
        return self.engine.run_until_done(event, limit=limit)

    def describe(self) -> str:
        """ASCII rendering of the tile grid (the F1 experiment's figure)."""
        lines = [
            f"Apiary on {self.part.name} "
            f"({self.topo.width}x{self.topo.height} tiles, "
            f"OS overhead {self.apiary_overhead_fraction():.1%} of device)",
        ]
        reverse = {}
        for name, node in self.namespace.items():
            if not name.startswith("tile"):
                reverse.setdefault(node, []).append(name)
        width = self.topo.width
        for y in range(self.topo.height):
            row = []
            for x in range(width):
                node = self.topo.node_at(x, y)
                tile = self.tiles[node]
                if tile.failed:
                    label = "FAILED"
                elif tile.accelerator is not None:
                    label = tile.accelerator.name
                else:
                    label = "-"
                names = reverse.get(node)
                if names:
                    label = f"{label}[{','.join(sorted(names))}]"
                row.append(f"{label:^24}")
            lines.append(" | ".join(row))
        return "\n".join(lines)


def build_figure1(engine: Optional[Engine] = None,
                  fabric: Optional[EthernetFabric] = None) -> ApiarySystem:
    """The configuration Figure 1 of the paper draws.

    "This configuration has two applications composed of multiple
    accelerators" plus OS services (networking, memory) on their own tiles:
    a 3x2 grid with the memory service, the network service, application A
    on two tiles (a pipeline), and application B on two tiles (a replicated
    service).
    """
    engine = engine or Engine()
    if fabric is None:
        fabric = EthernetFabric(engine, latency_cycles=500)
    return ApiarySystem(SystemConfig.figure1(), engine=engine,
                        fabric=fabric)
