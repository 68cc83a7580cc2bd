"""repro.sched — the tile scheduler and autoscaling control plane.

Apiary's claim is that the *OS* should place, load, and revoke
accelerators on tiles (PAPER §4.1, §4.5); the kernel deliberately stopped
at mechanism (``MgmtPlane.load`` by explicit tile number, matching the
paper's deferral of policy to AmorphOS/Coyote).  This package is that
policy layer, in the spirit of FOS's scheduler over partial regions and
SYNERGY's transparent scale-out:

* :class:`AdmissionController` — per-tenant quotas and priorities with
  typed rejections (:class:`~repro.errors.QuotaExceeded`);
* :class:`Placer` — resource-aware bin-packing of bitstream costs
  against tile slot capacities, DRC-screened, first fit;
* :class:`TileScheduler` — the deterministic, event-driven control loop:
  job queue, placement, priority preemption (checkpoint-migrate or
  kill-and-requeue), and fault-driven rescheduling;
* :class:`Autoscaler` — reconfiguration-cost-aware replica scaling for
  cluster services, driven by front-end queue depth and tile utilization,
  rebinding the service directory and front-end as replicas come and go.

Everything is deterministic: identically-seeded runs produce
byte-identical scheduler/autoscaler event logs (pinned by CI).  S2 and
C1 drive the autoscaler as :mod:`repro.loadgen` library scenarios
(``autoscale_step``, ``autoscale_chaos``, ``cache_step``).
"""

from repro.sched.admission import AdmissionController, TenantQuota
from repro.sched.autoscaler import Autoscaler
from repro.sched.job import Job, JobSpec, JobState
from repro.sched.placement import Placer
from repro.sched.scheduler import SchedEvent, TileScheduler

__all__ = [
    "AdmissionController",
    "TenantQuota",
    "Autoscaler",
    "Job",
    "JobSpec",
    "JobState",
    "Placer",
    "TileScheduler",
    "SchedEvent",
]
