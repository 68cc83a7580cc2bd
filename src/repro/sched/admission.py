"""Admission control: per-tenant quotas at submit time.

Multitenancy is Apiary's whole premise — the monitor isolates tenants at
runtime, but nothing yet stops one tenant from *asking* for every tile.
Admission is the synchronous front door of the scheduler: a submit
either enters the queue or raises a typed rejection immediately, so
tenants can tell "you are over quota" (:class:`~repro.errors.QuotaExceeded`)
apart from "the fabric is full right now" (queued, placed later).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import AdmissionRejected, ConfigError, QuotaExceeded
from repro.sched.job import JobSpec

__all__ = ["AdmissionController", "TenantQuota"]


@dataclass(frozen=True)
class TenantQuota:
    """Ceilings for one tenant (``None`` = unlimited)."""

    #: jobs simultaneously placed-or-placing (tiles the tenant holds)
    max_running: Optional[int] = None
    #: highest priority the tenant may submit at (prevents a tenant from
    #: outbidding everyone just by picking a large number)
    max_priority: Optional[int] = None


#: the quota of a tenant the controller has none for
UNLIMITED = TenantQuota()


class AdmissionController:
    """Screens submissions against per-tenant quotas.

    ``quotas`` maps tenant name to :class:`TenantQuota`; tenants not
    listed are :data:`UNLIMITED`.
    """

    def __init__(self, quotas: Optional[Dict[str, TenantQuota]] = None):
        self.quotas: Dict[str, TenantQuota] = dict(quotas or {})
        for tenant, quota in self.quotas.items():
            if not isinstance(quota, TenantQuota):
                raise ConfigError(
                    f"quota for {tenant!r} must be a TenantQuota")

    def quota_for(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, UNLIMITED)

    def admit(self, spec: JobSpec, running: int) -> None:
        """Raise a typed rejection, or return to admit.

        ``running`` is the tenant's *current* count as the scheduler sees
        it; admission itself is stateless so the scheduler stays the
        single source of truth about jobs.
        """
        if not spec.name:
            raise AdmissionRejected("job needs a non-empty name")
        if not spec.tenant:
            raise AdmissionRejected(f"job {spec.name!r} needs a tenant")
        quota = self.quota_for(spec.tenant)
        if quota.max_priority is not None and spec.priority > quota.max_priority:
            raise AdmissionRejected(
                f"tenant {spec.tenant!r} may submit at priority <= "
                f"{quota.max_priority}, asked for {spec.priority}"
            )
        if quota.max_running is not None and running >= quota.max_running:
            raise QuotaExceeded(
                f"tenant {spec.tenant!r} holds {running}/{quota.max_running} "
                f"running tiles; rejecting {spec.name!r}"
            )
