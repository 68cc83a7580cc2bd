"""Job model for the tile scheduler.

A *job* is one long-running accelerator instance the scheduler keeps
placed somewhere: the unit of admission (tenant quotas), placement
(one tile slot), preemption (priority), and rescheduling (faults).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

__all__ = ["Job", "JobSpec", "JobState"]


class JobState(enum.Enum):
    """Lifecycle of a scheduled job (values appear in the event log)."""

    QUEUED = "queued"        # admitted, awaiting placement
    PLACING = "placing"      # a tile is reconfiguring for it
    RUNNING = "running"      # live on a tile
    COMPLETED = "completed"  # intentionally finished/torn down
    FAILED = "failed"        # abandoned after exceeding retry budget

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.value


@dataclass(frozen=True)
class JobSpec:
    """What a tenant submits: everything needed to (re)place the job.

    ``factory`` builds a *fresh* accelerator instance per placement — the
    scheduler may place a job several times (load failures, preemption,
    fault rescheduling), and each placement reconfigures a slot from the
    bitstream, never reuses a Python object across tiles.
    """

    name: str
    tenant: str
    factory: Callable[[], Any]
    #: larger wins: a queued high-priority job may evict a running
    #: lower-priority one when no slot fits it
    priority: int = 0
    signed_by: Optional[str] = None


class Job:
    """One submitted job and its scheduling bookkeeping."""

    __slots__ = ("id", "spec", "state", "node", "saved_state",
                 "submitted_at", "started_at", "finished_at",
                 "placements", "preemptions", "faults")

    def __init__(self, job_id: int, spec: JobSpec, submitted_at: int):
        self.id = job_id
        self.spec = spec
        self.state = JobState.QUEUED
        #: tile currently hosting (or reconfiguring for) the job
        self.node: Optional[int] = None
        #: checkpointed state carried across preemption/faults; restored
        #: into the next placement's fresh accelerator instance
        self.saved_state: Dict[str, Any] = {}
        self.submitted_at = submitted_at
        self.started_at: Optional[int] = None
        self.finished_at: Optional[int] = None
        self.placements = 0
        self.preemptions = 0
        self.faults = 0

    @property
    def active(self) -> bool:
        """Counts against the tenant's running-tile quota."""
        return self.state in (JobState.PLACING, JobState.RUNNING)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Job #{self.id} {self.spec.name!r} {self.state.value}"
                f" node={self.node}>")
