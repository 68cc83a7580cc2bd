"""Tile recovery and service failover — the availability layer.

The paper's fault model (§4.4) stops at *containment*: the FaultManager
fail-stops a tile and peers get NACKs.  This module adds what cloud FPGA
orchestrators (Funky's VM-style failover, FOS's dynamic partial reloads)
build on top of containment — detection, restart, re-placement:

* **detection** is one subscription, ``FaultManager.on_fault``, which
  reacts the cycle a tile drains: every fail-stop outside a teardown — an
  organic fault, a chaos crash, an operator ``mgmt.fail_stop``, a board
  kill — is reported there, so nothing needs polling;
* **restart in place**: the slot is torn down (capabilities revoked) and
  the accelerator's bitstream reloaded into the same region;
* **failover to a spare**: when the home slot cannot be reloaded — or the
  operator prefers warm spares — the replacement loads on a spare tile,
  the logical endpoint name rebinds there, and the dead tile's SEND
  grants are re-minted for the new holder;
* **state resumption**: contexts the FaultManager parked in
  ``tile.saved_contexts`` (preemptible accelerators) are merged and
  restored into the replacement before it starts.

Peers never re-learn addresses: they hold SEND capabilities to the
*logical* endpoint name, and monitors resolve names per message — so a
failover is invisible to callers beyond the errors they retry through
(``Shell.call(..., retry=RetryPolicy(...))``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ConfigError, ReproError
from repro.kernel.fault import FaultManager, FaultRecord
from repro.kernel.mgmt import MgmtPlane
from repro.kernel.tile import Tile
from repro.sim import Engine, Event, StatsRegistry

__all__ = ["RecoveryManager", "Deployment", "RecoveryEvent"]

#: cycles a recovery waits before retrying a teardown that found the slot
#: mid-reconfiguration
TEARDOWN_RETRY_WAIT = 5_000


@dataclass
class Deployment:
    """One service the recovery manager keeps alive."""

    endpoint: str
    factory: Callable[[], Any]  # builds a fresh accelerator instance
    node: int
    signed_by: Optional[str] = None
    restarts: int = 0
    #: name of the subsystem that owns this deployment's fault handling
    #: (e.g. "replication").  When set, the recovery manager does NOT
    #: restart/restore on fault — a blind restore of a chain member would
    #: resurrect state the chain has moved past; the delegate repairs
    #: (promote/splice) through its own fault subscription instead.
    delegate: Optional[str] = None


@dataclass
class RecoveryEvent:
    """One completed recovery, for reports and assertions."""

    time: int
    endpoint: str
    from_node: int
    to_node: int
    mttr: int
    kind: str  # "restart" | "failover"


class RecoveryManager:
    """Restart/failover policy for deployed services, driven by the fault
    manager's ``on_fault`` feed.

    Parameters
    ----------
    spares: tiles reserved as failover targets (kept empty until needed).
    prefer_spare: fail over to a spare even when the home slot is
        reloadable (models operators who want the suspect silicon cold).
    max_restarts: per-deployment cap before the manager gives up (a
        crash-looping bitstream should not monopolize the reconfig port).
    """

    def __init__(
        self,
        engine: Engine,
        mgmt: MgmtPlane,
        fault_manager: FaultManager,
        spares: Optional[List[int]] = None,
        prefer_spare: bool = False,
        max_restarts: int = 8,
        stats: Optional[StatsRegistry] = None,
    ):
        self.engine = engine
        self.mgmt = mgmt
        self.fault_manager = fault_manager
        self.spares: List[int] = list(spares or [])
        self.prefer_spare = prefer_spare
        self.max_restarts = max_restarts
        self.stats = stats if stats is not None else StatsRegistry()
        self.deployments: Dict[str, Deployment] = {}
        self.recoveries: List[RecoveryEvent] = []
        self._recovering: set = set()
        fault_manager.on_fault.append(self._on_fault)

    # -- deployment registry ------------------------------------------------

    def deploy(self, node: int, factory: Callable[[], Any], endpoint: str,
               signed_by: Optional[str] = None,
               delegate: Optional[str] = None) -> Event:
        """Load ``factory()`` on ``node`` and keep it alive at ``endpoint``."""
        if endpoint in self.deployments:
            raise ConfigError(f"{endpoint!r} is already a managed deployment")
        dep = Deployment(endpoint=endpoint, factory=factory, node=node,
                         signed_by=signed_by, delegate=delegate)
        self.deployments[endpoint] = dep
        return self.mgmt.load(node, factory(), endpoint=endpoint,
                              signed_by=signed_by)

    def forget(self, endpoint: str) -> None:
        """Stop managing ``endpoint`` (e.g. before an intentional teardown)."""
        self.deployments.pop(endpoint, None)

    def _deployment_on(self, tile: Tile) -> Optional[Deployment]:
        for dep in self.deployments.values():
            if dep.node == tile.node:
                return dep
        return None

    # -- detection ----------------------------------------------------------

    def _on_fault(self, tile: Tile, record: FaultRecord) -> None:
        """The fault manager just contained a fault on a tile."""
        if record.action != "drained":
            return
        dep = self._deployment_on(tile)
        if dep is not None and dep.endpoint not in self._recovering:
            self.stats.counter("recovery.fault_detections").inc()
            if self._delegated(dep, tile.node):
                return
            self._start_recovery(dep)

    def _delegated(self, dep: Deployment, node: int) -> bool:
        """Hand a delegated deployment's fault to its owning subsystem.

        Restoring a replicated-chain member in place would resurrect a
        pre-fault replica the chain has already reconfigured around — the
        split-brain the epoch machinery exists to prevent.  So: stop
        managing it, free the slot, and let the delegate (which subscribes
        to the same fault notifications) run chain repair instead.
        """
        if dep.delegate is None:
            return False
        self.stats.counter("recovery.delegated").inc()
        self.mgmt.spans.event(self.engine.now, "recovery.delegate",
                              dep.endpoint, node=node, to=dep.delegate)
        self.forget(dep.endpoint)
        self.engine.process(self._teardown_quietly(node),
                            name=f"recovery.clear.{dep.endpoint}")
        return True

    def _teardown_quietly(self, node: int):
        try:
            yield self.mgmt.teardown(node)
        except ReproError:
            pass  # slot already blank or mid-reconfig; nothing to free

    def stop(self) -> None:
        """Stop reacting to faults: unsubscribe from the fault manager."""
        if self._on_fault in self.fault_manager.on_fault:
            self.fault_manager.on_fault.remove(self._on_fault)

    # -- recovery -----------------------------------------------------------

    def _start_recovery(self, dep: Deployment) -> None:
        self._recovering.add(dep.endpoint)
        self.engine.process(self._recover(dep),
                            name=f"recovery.{dep.endpoint}")

    def _candidates(self, home: int) -> List[int]:
        spares = [s for s in self.spares if s != home]
        if self.prefer_spare:
            return spares + [home]
        return [home] + spares

    def _recover(self, dep: Deployment):
        try:
            yield from self._recover_inner(dep)
        finally:
            self._recovering.discard(dep.endpoint)

    def _recover_inner(self, dep: Deployment):
        old_node = dep.node
        tile = self.mgmt.tiles[old_node]
        failed_at = tile.failed_at if tile.failed_at is not None \
            else self.engine.now
        dep.restarts += 1
        if dep.restarts > self.max_restarts:
            self.stats.counter("recovery.abandoned").inc()
            self.mgmt.spans.event(self.engine.now, "recovery.abandon",
                                  dep.endpoint, node=old_node)
            self.forget(dep.endpoint)
            return
        # capture what must survive: this deployment's parked contexts
        # and the policy-level grant record (teardown revokes the actual
        # capabilities)
        saved = tile.claim_contexts(dep.endpoint)
        old_holder = tile.endpoint
        prior_grants = self.mgmt.grants_of(old_holder)

        torn_down = False
        for _attempt in range(3):
            try:
                yield self.mgmt.teardown(old_node)
                torn_down = True
                break
            except ReproError:
                if not tile.region.occupied and not tile.region.reconfiguring:
                    torn_down = True  # slot already blank; authority revoked
                    break
                # slot mid-reconfiguration: wait and retry
                yield TEARDOWN_RETRY_WAIT
        if not torn_down:
            self.stats.counter("recovery.failed_attempts").inc()
            return

        for node in self._candidates(old_node):
            target = self.mgmt.tiles[node]
            if node != old_node and not target.free:
                continue
            replacement = dep.factory()
            if saved:
                replacement.restore_state(dict(saved))
            started = self.mgmt.load(node, replacement,
                                     endpoint=dep.endpoint,
                                     signed_by=dep.signed_by)
            try:
                yield started
            except ReproError:
                self.stats.counter("recovery.failed_attempts").inc()
                # the name was registered optimistically; take it back
                if self.mgmt.namespace.get(dep.endpoint) == node:
                    self.mgmt.unregister_endpoint(dep.endpoint)
                continue
            self._finish(dep, old_node, node, old_holder, prior_grants,
                         failed_at)
            return
        self.stats.counter("recovery.abandoned").inc()
        self.mgmt.spans.event(self.engine.now, "recovery.abandon",
                              dep.endpoint, node=old_node)

    def _finish(self, dep: Deployment, old_node: int, new_node: int,
                old_holder: str, prior_grants: List[str],
                failed_at: int) -> None:
        new_holder = self.mgmt.tiles[new_node].endpoint
        # re-mint the authority the dead tile held (peers' caps to the
        # logical endpoint name survive untouched — names rebind, caps don't)
        for endpoint in prior_grants:
            if endpoint in self.mgmt.namespace:
                self.mgmt.grant_send(new_holder, endpoint)
        if new_node == old_node:
            kind = "restart"
            self.stats.counter("recovery.restarts").inc()
        else:
            kind = "failover"
            self.stats.counter("recovery.failovers").inc()
            if new_node in self.spares:
                self.spares.remove(new_node)
                self.spares.append(old_node)  # the old slot becomes the spare
        dep.node = new_node
        mttr = self.engine.now - failed_at
        self.stats.sketch("recovery.mttr").record(mttr)
        event = RecoveryEvent(time=self.engine.now, endpoint=dep.endpoint,
                              from_node=old_node, to_node=new_node,
                              mttr=mttr, kind=kind)
        self.recoveries.append(event)
        self.mgmt.spans.event(self.engine.now, f"recovery.{kind}",
                              dep.endpoint, src=old_node, dst=new_node,
                              mttr=mttr)
