"""Autoscaler: reconfiguration-cost-aware replica scaling for services.

Scaling an FPGA service up is *not* starting a process — it is streaming
a partial bitstream for hundreds of thousands of cycles (a
:class:`~repro.cluster.service.ClusterPortedService` replica takes
``reconfig_duration(COST)`` ≈ 810k cycles ≈ 3 ms — and megacycles more
when the board must *synthesize* the bitstream first, see
:mod:`repro.hw.compile`).  Naive per-tick increments pay that latency
serially and oscillate.  This controller is built around that cost:

* **jump scaling** — when the queue signal trips, it sizes the *whole*
  deficit (``ceil(total_queue / TARGET_QUEUE)`` replicas) and issues the
  extra loads in one decision, so the reconfigurations overlap instead
  of queueing behind each other;
* **in-flight freeze** — while any replica is still reconfiguring
  (``pending_up > 0``) no further scale-up decisions are taken: the
  signal cannot yet reflect capacity that was already bought;
* **hysteresis on the way down** — ``DOWN_AFTER`` consecutive
  low-signal ticks are required per removal, and removals are graceful:
  the directory stops routing first, in-flight work drains, the
  front-end retires the instance, and only then is the tile torn down;
* **predictive prefetch** (a bitstream cache with
  ``CacheConfig.prefetch`` on) — when the queue signal is *rising
  toward* the scale-up threshold, or the SLO fast window is burning,
  the controller warms cold boards' artifact caches ahead of the
  decision, so the scale-up that follows pays reconfiguration only, not
  synthesis.

Signals come from the layers the OS already exposes: front-end
per-instance queue depth (``BackendHealth.outstanding``) and per-tile
monitor traffic rates via ``MgmtPlane.telemetry()`` (which also carries
the region occupancy gauges and any attached
:class:`~repro.obs.telemetry.TelemetrySampler` series).

Every decision lands in :attr:`events` — a deterministic log that is
byte-identical across identically-seeded runs (pinned by the S2
benchmark).  Dead replicas (failed tiles) are replaced like-for-like on
the next tick, which is what keeps the kill-a-tile chaos run serving
with no manual intervention.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Tuple

from repro.cluster.service import ClusterPortedService
from repro.errors import ConfigError
from repro.hw.region import reconfig_duration

__all__ = ["Autoscaler"]

#: cycles between two control-loop ticks
INTERVAL = 20_000
#: queue per ready replica above which a tick scales up
HIGH_QUEUE = 8.0
#: queue per ready replica below which a tick counts toward a removal
LOW_QUEUE = 1.0
#: queue per replica a scale-up sizes the fleet for
TARGET_QUEUE = 3.0
#: consecutive low ticks per removal
DOWN_AFTER = 3
#: cycles a removed replica keeps draining in-flight work before teardown
DRAIN_WINDOW = 10_000


class Autoscaler:
    """Scales one stateless service between ``min_replicas`` and ``max``."""

    def __init__(
        self,
        cluster,
        service: str,
        min_replicas: int = 1,
        max_replicas: int = 4,
        slo: Optional[Any] = None,
    ):
        if min_replicas < 1 or max_replicas < min_replicas:
            raise ConfigError(
                f"need 1 <= min <= max, got {min_replicas}..{max_replicas}")
        self.cluster = cluster
        self.engine = cluster.engine
        self.directory = cluster.directory
        self.frontend = cluster.frontend
        self.service = service
        self.spec = self.directory.spec(service)  # validates the name
        if self.spec.sharded:
            raise ConfigError(f"{service!r} is sharded; only stateless "
                              "services autoscale by replica")
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        #: optional :class:`~repro.obs.slo.SLOEngine` — when its fast
        #: window is burning for this service, scale up even if the queue
        #: signal has not tripped yet (the burn is *user-visible* pain;
        #: the queue may lag it, e.g. under admission-control rejects,
        #: which never enter a backend queue at all)
        self.slo = slo
        #: cycles one replica's partial reconfiguration costs — the price
        #: every scale-up decision pays before capacity materializes
        #: (assuming a warm bitstream; a cold board also pays synthesis)
        self.reconfig_cycles = reconfig_duration(ClusterPortedService.COST)
        #: compile-ahead on early warning: the cluster runs a bitstream
        #: cache whose config asks for prefetch
        self.plane = cluster.bitplane
        self.prefetch = (self.plane is not None
                         and cluster.config.cache.prefetch)
        self.prefetches = 0

        #: deterministic decision log: (cycle, action, iid, replicas, info)
        self.events: List[Tuple] = []
        #: (cycle, ready_replicas, total_replicas, queue_per_ready, util)
        self.series: List[Tuple] = []
        self.scale_ups = 0
        self.scale_downs = 0
        self.replacements = 0
        self._pending_up = 0
        self._low_ticks = 0
        self._prev_q: Optional[int] = None
        self._proc = None

    def start(self) -> None:
        if self._proc is not None:
            raise ConfigError("autoscaler already started")
        self._proc = self.engine.process(
            self._run(), name=f"autoscale.{self.service}")

    # -- signals -----------------------------------------------------------

    def replicas(self) -> int:
        return len(self.spec.instances)

    def _tile(self, inst):
        return self.cluster.systems[inst.fpga].tiles[inst.node]

    def ready_instances(self) -> List[Any]:
        """Replicas actually serving (loaded, not failed, not mid-load)."""
        return [inst for inst in self.spec.instances
                if inst.ready and self._tile(inst).occupied
                and not self._tile(inst).failed]

    def signal(self) -> Tuple[int, float, int]:
        """(total queue depth, max tile tx rate, ready count)."""
        ready = self.ready_instances()
        total_q = 0
        util = 0.0
        for inst in self.spec.instances:
            health = self.frontend.health.get(inst.iid)
            if health is not None:
                total_q += health.outstanding
        # open-loop pressure: submissions parked in the front-end backlog
        # are demand just as real as dispatched-but-unanswered requests
        total_q += self.frontend.backlog_depth(self.service)
        for inst in ready:
            util = max(util, self._tile(inst).monitor.telemetry()[
                "tx_flits_per_cycle"])
        return total_q, util, len(ready)

    # -- control loop ------------------------------------------------------

    def _run(self):
        while True:
            yield INTERVAL
            # 1) replace replicas whose tile died (fault-driven repair);
            # skip instances still reconfiguring — their tile keeps the
            # failed flag until the new load completes, and replacing a
            # replacement would loop forever
            for inst in list(self.spec.instances):
                if inst.ready and self._tile(inst).failed:
                    yield from self._replace(inst)
            total_q, util, ready = self.signal()
            per_q = total_q / max(1, ready)
            # queue growth per cycle since the last tick — the arrival
            # excess the next scale-up must absorb
            qdot = 0.0
            if self._prev_q is not None:
                qdot = max(0.0, (total_q - self._prev_q) / INTERVAL)
            self._prev_q = total_q
            self.series.append((self.engine.now, ready, self.replicas(),
                                round(per_q, 3), round(util, 4)))
            # 1b) predictive prefetch: the queue is rising toward the
            # threshold (or the SLO budget is already burning) and a
            # scale-up is still possible — start warming cold boards NOW,
            # so when the jump decision lands the bitstream is an artifact
            # cache hit instead of a multi-megacycle synthesis run
            if (self.prefetch
                    and self._pending_up == 0
                    and self.replicas() < self.max_replicas
                    and ((qdot > 0 and per_q > HIGH_QUEUE / 2)
                         or (self.slo is not None
                             and self.slo.firing(self.service,
                                                 self.engine.now)))):
                issued = self.plane.prefetch_service(self.service)
                if issued:
                    self.prefetches += len(issued)
                    self._log("prefetch",
                              ",".join(f"fpga{i}" for i in sorted(issued)),
                              f"queue={per_q:.1f} qdot={qdot:.4f}")
            # 2) keep the floor (also re-adds after a failed replacement)
            if (self._pending_up == 0
                    and self.replicas() < self.min_replicas):
                for _ in range(self.min_replicas - self.replicas()):
                    self._scale_up("below min")
                continue
            # 3) SLO burn override: a firing fast-burn alert buys one
            # replica per tick regardless of the queue signal (rejects
            # under admission control burn budget without ever queueing)
            if (self.slo is not None
                    and self._pending_up == 0
                    and self.replicas() < self.max_replicas
                    and self.slo.firing(self.service, self.engine.now)):
                self._low_ticks = 0
                self._scale_up("slo_burn")
                continue
            # 4) scale decisions
            if per_q > HIGH_QUEUE:
                self._low_ticks = 0
                if self._pending_up == 0 and self.replicas() < self.max_replicas:
                    # new capacity only materializes after reconfig_cycles,
                    # so size for the backlog that will exist *then*, not
                    # for the queue visible now — one jump instead of a
                    # chain of serial half-megacycle reconfigurations
                    predicted = total_q + qdot * self.reconfig_cycles
                    desired = min(
                        self.max_replicas,
                        max(self.replicas() + 1,
                            math.ceil(predicted / TARGET_QUEUE)))
                    why = (f"queue={per_q:.1f} "
                           f"predicted@ready={predicted:.0f}")
                    for _ in range(desired - self.replicas()):
                        self._scale_up(why)
            elif per_q < LOW_QUEUE:
                self._low_ticks += 1
                if (self._low_ticks >= DOWN_AFTER
                        and self._pending_up == 0
                        and self.replicas() > self.min_replicas):
                    self._low_ticks = 0
                    yield from self._scale_down()
            else:
                self._low_ticks = 0

    # -- actions -----------------------------------------------------------

    def _scale_up(self, why: str) -> None:
        try:
            inst, started = self.directory.add_instance(self.service)
        except ConfigError as err:
            self._log("up_failed", "-", str(err))
            return
        self.frontend.track_all()
        self._pending_up += 1
        self.scale_ups += 1
        self._log("scale_up", inst.iid, why)
        started.add_callback(lambda ev, i=inst: self._up_done(ev, i))

    def _up_done(self, ev, inst) -> None:
        self._pending_up -= 1
        if ev.failed:
            # the load itself was rejected; detach the phantom replica
            try:
                self.directory.remove_instance(self.service, iid=inst.iid)
            except ConfigError:
                pass
            self.frontend.retire(inst.iid)
            self._log("up_load_failed", inst.iid, str(ev.value))
        else:
            self._log("up_ready", inst.iid, "")

    def _scale_down(self):
        """Graceful removal: unroute, drain, retire, then free the tile."""
        inst = self.directory.remove_instance(self.service)
        self.scale_downs += 1
        self._log("scale_down", inst.iid, "")
        yield DRAIN_WINDOW
        self.frontend.retire(inst.iid)
        system = self.cluster.systems[inst.fpga]
        yield system.mgmt.teardown(inst.node)
        self._log("down_done", inst.iid, "")

    def _replace(self, inst):
        """Swap a dead replica for a fresh one (no operator in the loop)."""
        self.directory.remove_instance(self.service, iid=inst.iid)
        self.frontend.retire(inst.iid)
        self.replacements += 1
        self._log("replace", inst.iid, f"tile {inst.node} failed")
        system = self.cluster.systems[inst.fpga]
        yield system.mgmt.teardown(inst.node)
        self._scale_up(f"replacing {inst.iid}")

    def _log(self, action: str, iid: str, info: str) -> None:
        self.events.append(
            (self.engine.now, action, iid, self.replicas(), info))
