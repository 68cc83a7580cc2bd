"""TileScheduler: the deterministic, event-driven scheduling loop.

One scheduler per :class:`~repro.kernel.system.ApiarySystem`.  It owns a
priority job queue and a single dispatcher process that wakes only on
events — submit, load completion, teardown completion, fault — never on
polling, so an idle scheduler costs zero simulated work and runs are
reproducible: identically-seeded systems produce byte-identical event
logs (:meth:`event_log`).

The loop composes the pieces the kernel already provides as mechanism:

* **admission** (:class:`~repro.sched.admission.AdmissionController`) —
  synchronous, typed rejections at :meth:`submit`;
* **placement** (:class:`~repro.sched.placement.Placer`) — bin-packing
  the job's bitstream cost onto free slots under the configured policy,
  then ``MgmtPlane.load`` (which re-runs the DRC as the trust boundary);
* **preemption** — a queued high-priority job that fits nowhere may
  displace the lowest-priority running job: *checkpoint-migrate* when
  the victim is preemptible and another slot fits it
  (``MgmtPlane.migrate``), otherwise *checkpoint-and-requeue* (state
  externalized, carried in ``job.saved_state``) or plain kill-and-requeue;
* **fault rescheduling** — a ``FaultManager`` drain hands the tile's job
  back to the queue; the dispatcher re-places it on spare capacity
  within one teardown + reconfiguration delay.

Do not combine a scheduler with :class:`~repro.kernel.recovery.
RecoveryManager` deployments *for the same tiles* — both would race to
re-place work after a fault.  Recovery owns OS/cluster services; the
scheduler owns the jobs submitted to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigError, PlacementFailed, ReproError
from repro.sched.admission import AdmissionController, TenantQuota
from repro.sched.job import Job, JobSpec, JobState
from repro.sched.placement import Placer, PlacementPolicy

__all__ = ["SchedEvent", "TileScheduler"]


@dataclass(frozen=True)
class SchedEvent:
    """One scheduler decision, as recorded in the deterministic log."""

    time: int
    kind: str   # submit|place|start|preempt|migrate|fault|requeue|finish|...
    job: str
    tenant: str
    node: Optional[int]
    info: str = ""

    def as_tuple(self) -> Tuple:
        return (self.time, self.kind, self.job, self.tenant, self.node,
                self.info)


class TileScheduler:
    """Job queue + placer + preemption + fault rescheduling for one FPGA."""

    def __init__(
        self,
        system,
        policy: PlacementPolicy = PlacementPolicy.FIRST_FIT,
        quotas: Optional[Dict[str, TenantQuota]] = None,
        default_quota: Optional[TenantQuota] = None,
        reserved: Tuple[int, ...] = (),
        max_faults: int = 3,
    ):
        self.system = system
        self.engine = system.engine
        self.mgmt = system.mgmt
        self.stats = system.stats
        self.spans = system.spans
        self.admission = AdmissionController(quotas, default=default_quota)
        self.placer = Placer(system.tiles, system.topo, drc=system.drc,
                             policy=policy, reserved=reserved)
        #: faults a job may survive before the scheduler abandons it
        self.max_faults = max_faults
        self.jobs: Dict[int, Job] = {}
        self.events: List[SchedEvent] = []
        self._queue: List[Job] = []
        self._by_node: Dict[int, Job] = {}
        self._migrating: set = set()   # job ids mid-migration
        self._next_id = 1
        self._kick = None
        system.fault_manager.on_fault.append(self._on_fault)
        self.engine.process(self._dispatcher(), name="sched.dispatch")

    # -- public API --------------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        """Admit a job (or raise a typed rejection) and queue it."""
        running = sum(1 for j in self.jobs.values()
                      if j.spec.tenant == spec.tenant and j.active)
        queued = sum(1 for j in self.jobs.values()
                     if j.spec.tenant == spec.tenant
                     and j.state is JobState.QUEUED)
        try:
            self.admission.admit(spec, running=running, queued=queued)
        except ReproError as err:
            self.stats.counter("sched.rejected").inc()
            self._log("reject", spec.name, spec.tenant, None, str(err))
            raise
        job = Job(self._next_id, spec, self.engine.now)
        self._next_id += 1
        self.jobs[job.id] = job
        self._queue.append(job)
        self.stats.counter("sched.submitted").inc()
        self._log("submit", spec.name, spec.tenant, None,
                  f"prio={spec.priority}")
        self._wake()
        return job

    def finish(self, job: Job):
        """Intentionally complete a job; frees its tile (if running).

        Returns the teardown event for a running job, ``None`` for a
        queued one.  A job mid-reconfiguration cannot finish yet.
        """
        if job.state is JobState.QUEUED:
            self._queue.remove(job)
            job.state = JobState.COMPLETED
            job.finished_at = self.engine.now
            self._log("finish", job.spec.name, job.spec.tenant, None, "queued")
            return None
        if job.state is not JobState.RUNNING or job.id in self._migrating:
            raise ConfigError(f"{job!r} cannot finish while {job.state.value}")
        node = job.node
        self._by_node.pop(node, None)
        job.state = JobState.COMPLETED
        job.finished_at = self.engine.now
        job.node = None
        done = self.mgmt.teardown(node)
        done.add_callback(lambda _ev: self._wake())
        self._log("finish", job.spec.name, job.spec.tenant, node, "")
        return done

    def queue_depth(self) -> int:
        return len(self._queue)

    def event_log(self) -> List[Tuple]:
        """The deterministic decision log (byte-identical across seeds)."""
        return [e.as_tuple() for e in self.events]

    # -- dispatcher --------------------------------------------------------

    def _dispatcher(self):
        while True:
            self._dispatch_round()
            self.stats.gauge("sched.queue_depth").set(len(self._queue))
            self._kick = self.engine.event("sched.kick")
            yield self._kick
            self._kick = None

    def _wake(self) -> None:
        if self._kick is not None and not self._kick.triggered:
            self._kick.succeed(None)

    def _dispatch_round(self) -> None:
        """One pass over the queue in (priority, age) order."""
        for job in sorted(self._queue,
                          key=lambda j: (-j.spec.priority, j.id)):
            quota = self.admission.quota_for(job.spec.tenant)
            if quota.max_running is not None:
                active = sum(1 for j in self.jobs.values()
                             if j.spec.tenant == job.spec.tenant and j.active)
                if active >= quota.max_running:
                    continue  # stays queued until the tenant frees a tile
            self._try_place(job)

    def _try_place(self, job: Job) -> None:
        accelerator = job.spec.factory()
        if job.saved_state:
            accelerator.restore_state(dict(job.saved_state))
        bitstream = accelerator.bitstream(signed_by=job.spec.signed_by)
        near = self._resolve_anchor(job.spec.colocate_with)
        try:
            node = self.placer.place(bitstream, near=near)
        except PlacementFailed:
            if job.spec.priority > 0:
                self._make_room(job, bitstream)
            return
        self._queue.remove(job)
        job.state = JobState.PLACING
        job.node = node
        job.placements += 1
        self._by_node[node] = job
        tid, span = (0, 0)
        if self.spans.enabled:
            tid = self.spans.new_trace()
            span = self.spans.open(tid, f"sched.place:{job.spec.name}",
                                   "sched", "sched", self.engine.now,
                                   node=node, job=job.id)
        started = self.mgmt.load(node, accelerator,
                                 endpoint=job.spec.endpoint,
                                 signed_by=job.spec.signed_by,
                                 trace=(tid, span) if span else None)
        started.add_callback(lambda ev, j=job, n=node, s=span:
                             self._on_placed(ev, j, n, s))
        self.stats.counter("sched.placements").inc()
        self._log("place", job.spec.name, job.spec.tenant, node,
                  f"attempt={job.placements}")

    def _on_placed(self, ev, job: Job, node: int, span: int) -> None:
        if span:
            self.spans.close(span, self.engine.now, failed=ev.failed)
        if job.state is not JobState.PLACING or job.node != node:
            return  # superseded (e.g. faulted mid-reconfiguration)
        if ev.failed:
            # DRC/capacity were pre-screened, so this is rare (a race with
            # an out-of-band load); requeue and let the next round retry
            self._by_node.pop(node, None)
            job.node = None
            job.state = JobState.QUEUED
            self._queue.append(job)
            self._log("load_failed", job.spec.name, job.spec.tenant, node,
                      str(ev.value))
        else:
            job.state = JobState.RUNNING
            if job.started_at is None:
                job.started_at = self.engine.now
            self.stats.sketch("sched.queue_wait").record(
                self.engine.now - job.submitted_at)
            self._log("start", job.spec.name, job.spec.tenant, node, "")
        self._wake()

    def _resolve_anchor(self, name: Optional[str]) -> Optional[int]:
        if name is None:
            return None
        try:
            return self.system.namespace.lookup(name)
        except ReproError:
            return None

    # -- preemption --------------------------------------------------------

    def _make_room(self, job: Job, bitstream) -> None:
        """Displace the weakest running job so ``job`` can fit.

        Victims are considered lowest-priority first (youngest first
        within a priority) and must (a) be strictly lower priority and
        (b) occupy a tile that would actually fit ``job`` once vacated.
        """
        victims = [j for j in self.jobs.values()
                   if j.state is JobState.RUNNING
                   and j.id not in self._migrating
                   and j.spec.priority < job.spec.priority]
        victims.sort(key=lambda j: (j.spec.priority, -j.id))
        for victim in victims:
            if not self._vacated_fits(victim.node, bitstream):
                continue
            self._preempt(victim, for_job=job)
            return

    def _vacated_fits(self, node: int, bitstream) -> bool:
        return (node not in self.placer.reserved
                and self.placer.misfit_reason(node, bitstream) is None)

    def _preempt(self, victim: Job, for_job: Job) -> None:
        tile = self.system.tiles[victim.node]
        accelerator = tile.accelerator
        preemptible = accelerator is not None and accelerator.preemptible
        # A preemptible victim whose bitstream fits some other free slot
        # is migrated live (checkpoint travels inside mgmt.migrate);
        # useful when slots are heterogeneous: the victim retreats to a
        # smaller slot the high-priority job could not use.
        if preemptible:
            try:
                dest = self.placer.place(
                    accelerator.bitstream(signed_by=victim.spec.signed_by),
                    exclude=(victim.node,))
            except PlacementFailed:
                dest = None
            if dest is not None:
                self._migrate(victim, dest, for_job)
                return
        victim.preemptions += 1
        self.stats.counter("sched.preemptions").inc()
        if preemptible:
            victim.saved_state.update(accelerator.externalize_state())
            victim.saved_state.update(
                tile.claim_contexts(victim.spec.endpoint))
            mode = "checkpoint"
        else:
            mode = "kill"
        node = victim.node
        self._by_node.pop(node, None)
        victim.node = None
        victim.state = JobState.QUEUED
        self._queue.append(victim)
        done = self.mgmt.teardown(node)
        done.add_callback(lambda _ev: self._wake())
        self._log("preempt", victim.spec.name, victim.spec.tenant, node,
                  f"mode={mode} for={for_job.spec.name}")

    def _migrate(self, victim: Job, dest: int, for_job: Job) -> None:
        victim.preemptions += 1
        self._migrating.add(victim.id)
        self.stats.counter("sched.migrations").inc()
        src = victim.node
        self._log("migrate", victim.spec.name, victim.spec.tenant, src,
                  f"to={dest} for={for_job.spec.name}")
        self.engine.process(self._migrate_proc(victim, src, dest),
                            name=f"sched.migrate.{victim.id}")

    def _migrate_proc(self, victim: Job, src: int, dest: int):
        try:
            yield from self.mgmt.migrate(
                src, dest,
                make_accelerator=victim.spec.factory,
                endpoint=victim.spec.endpoint)
        except ReproError as err:
            # destination was taken out from under us — requeue instead
            self._by_node.pop(src, None)
            victim.node = None
            victim.state = JobState.QUEUED
            self._queue.append(victim)
            self._log("migrate_failed", victim.spec.name, victim.spec.tenant,
                      src, str(err))
        else:
            self._by_node.pop(src, None)
            self._by_node[dest] = victim
            victim.node = dest
            self._log("migrated", victim.spec.name, victim.spec.tenant, dest,
                      f"from={src}")
        finally:
            self._migrating.discard(victim.id)
            self._wake()

    # -- fault handling ----------------------------------------------------

    def _on_fault(self, tile, record) -> None:
        """FaultManager subscriber: reschedule a drained tile's job."""
        if record.action != "drained":
            return  # context-killed under PREEMPT: the tile is still alive
        job = self._by_node.pop(tile.node, None)
        if job is None or job.state in (JobState.COMPLETED, JobState.FAILED):
            return
        job.faults += 1
        job.node = None
        self.stats.counter("sched.fault_requeues").inc()
        # anything the fault manager checkpointed survives to the re-place
        job.saved_state.update(tile.claim_contexts(job.spec.endpoint))
        if job.id in self._migrating:
            return  # the migrate process sees the failure and requeues
        if job.faults > self.max_faults:
            job.state = JobState.FAILED
            job.finished_at = self.engine.now
            self._log("abandon", job.spec.name, job.spec.tenant, tile.node,
                      f"faults={job.faults}")
        else:
            job.state = JobState.QUEUED
            self._queue.append(job)
            self._log("fault_requeue", job.spec.name, job.spec.tenant,
                      tile.node, record.error)
        # free the slot regardless: the bitstream is still loaded on the
        # drained tile until unload completes
        done = self.mgmt.teardown(tile.node)
        done.add_callback(lambda _ev: self._wake())

    # -- internals ---------------------------------------------------------

    def _log(self, kind: str, job: str, tenant: str,
             node: Optional[int], info: str) -> None:
        self.events.append(SchedEvent(self.engine.now, kind, job, tenant,
                                      node, info))
        self.spans.event(self.engine.now, f"sched.{kind}", "sched",
                         job=job, node=node, info=info)
