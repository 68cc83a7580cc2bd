"""A tile: NoC router + monitor + reconfigurable accelerator slot (Figure 1).

"Each tile on the NoC contains an untrusted accelerator, an Apiary monitor,
and a NoC router."  The router lives in :mod:`repro.noc`; this class binds
one node's monitor, shell, and partial-reconfiguration region together and
owns the tile-level fault domain: every process the accelerator runs
(its ``main`` and any spawned contexts) reports failures here, and the
:class:`~repro.kernel.fault.FaultManager` decides fail-stop vs. preempt.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterator, Optional

from repro.errors import ReconfigError, TileFault
from repro.hw.region import ReconfigRegion
from repro.kernel.monitor import Monitor
from repro.kernel.shell import Shell
from repro.sim import Engine, Event, Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.fault import FaultManager

__all__ = ["Tile"]


class Tile:
    """One Apiary tile."""

    def __init__(
        self,
        engine: Engine,
        node: int,
        monitor: Monitor,
        region: ReconfigRegion,
        fault_manager: FaultManager,
        mids: Optional[Iterator[int]] = None,
    ):
        self.engine = engine
        self.node = node
        self.monitor = monitor
        self.region = region
        self.fault_manager = fault_manager
        self.shell = Shell(engine, monitor, mids=mids)
        self.accelerator = None
        self.main_process: Optional[Process] = None
        self.saved_contexts: Dict[str, Dict[str, Any]] = {}
        #: context name -> deployment endpoint that owned it when saved;
        #: :meth:`claim_contexts` matches on this so two tenants' contexts
        #: parked on one tile never merge
        self.saved_context_owners: Dict[str, Optional[str]] = {}
        #: the logical endpoint loaded here (set by mgmt.load, cleared by
        #: teardown) — provenance for saved contexts, since
        #: ``tile.endpoint`` is the *tile's* name, not the deployment's
        self.deployed_endpoint: Optional[str] = None
        #: cycle of the most recent fail-stop; recovery computes MTTR from it
        self.failed_at: Optional[int] = None
        #: held by mgmt.load while a cache-path load is still acquiring its
        #: artifact (the region isn't busy yet during synthesis, but the
        #: slot is spoken for); see :attr:`free`
        self.reserved = False

    @property
    def endpoint(self) -> str:
        return self.monitor.tile_name

    @property
    def failed(self) -> bool:
        """Fail-stopped since the last start: the monitor's drain is the
        one record of it."""
        return self.monitor.drained

    @property
    def occupied(self) -> bool:
        return self.accelerator is not None

    @property
    def free(self) -> bool:
        """The one answer to "may something be placed here?": no
        accelerator, the region empty and idle, and the slot not spoken
        for by a load whose bitstream is still in synthesis."""
        return (self.accelerator is None and not self.region.occupied
                and not self.region.reconfiguring and not self.reserved)

    def claim_contexts(self, owner: Optional[str]) -> Dict[str, Any]:
        """Take the parked contexts belonging to deployment ``owner``,
        merged into one state dict (the §4.4 isolation rule's one holder).

        Contexts another deployment owns stay parked for *its* restore —
        co-resident tenants may park overlapping state keys, and a blind
        merge would leak one tenant's checkpoint into another's.  Unowned
        contexts, and an ``owner`` of None, match anything (legacy).
        """
        state: Dict[str, Any] = {}
        for ctx in sorted(self.saved_contexts):
            parked_by = self.saved_context_owners.get(ctx)
            if parked_by is None or owner is None or parked_by == owner:
                state.update(self.saved_contexts.pop(ctx))
                self.saved_context_owners.pop(ctx, None)
        return state

    # -- lifecycle -------------------------------------------------------------

    def start(self, accelerator, signed_by: Optional[str] = None,
              artifact=None) -> Event:
        """Load the accelerator's bitstream and start its main process.

        The returned event succeeds when the accelerator is running (after
        reconfiguration time) or fails with the DRC/reconfig rejection.

        With ``artifact`` (a :class:`~repro.hw.compile.BitstreamArtifact`
        from the compile/cache pipeline) the region loads the artifact's
        canonical bitstream instead of re-packaging the instance's, and a
        ``drc_clean`` artifact skips the per-load DRC re-check — the screen
        already ran once, at synthesis.
        """
        started = self.engine.event(f"{self.endpoint}.start")
        if self.occupied:
            started.fail(ReconfigError(
                f"{self.endpoint} already runs {self.accelerator.name!r}"
            ))
            return started
        if artifact is not None:
            load = self.region.load(artifact.bitstream,
                                    precleared=artifact.drc_clean)
        else:
            load = self.region.load(accelerator.bitstream(signed_by=signed_by))

        def on_loaded(ev: Event) -> None:
            if ev.failed:
                started.fail(ev.value)
                return
            self.accelerator = accelerator
            accelerator.shell = self.shell
            accelerator.tile = self
            self.failed_at = None
            self.monitor.undrain()
            self.main_process = self.engine.process(
                self._guarded("main", accelerator.main(self.shell)),
                name=f"{self.endpoint}.main",
            )
            started.succeed(accelerator)

        load.add_callback(on_loaded)
        return started

    def spawn_context(self, context: str, generator) -> Process:
        """Run a user context on this accelerator, inside the fault domain.

        This is the multi-process execution model of Section 4.2: one tile,
        several contexts, each individually fault-tracked.
        """
        proc = self.engine.process(
            self._guarded(context, generator),
            name=f"{self.endpoint}.{context}",
        )
        return proc

    def _guarded(self, context: str, generator):
        """Wrap a process so faults report to the fault manager.

        Any :class:`~repro.errors.ReproError` escaping the accelerator
        (an injected :class:`TileFault`, an unhandled denial, a segment
        fault...) is a *modelled* fault — contained via the fault manager,
        never propagated: "Implementation errors in one module do not
        propagate to other modules except through defined message-passing
        interfaces."  :class:`Interrupt` is the OS killing/preempting the
        process (fail-stop teardown); it dies quietly unless the
        accelerator itself caught it to externalize state.  Anything else
        (TypeError, KeyError...) is a bug in the *model* and propagates.
        """
        from repro.errors import ReproError
        from repro.sim import Interrupt

        try:
            result = yield from generator
            return result
        except ReproError as err:
            self.fault_manager.report(self, context, err)
            return None
        except Interrupt:
            return None

    # -- fault actions (invoked by the FaultManager / chaos injector) --------------

    def inject_crash(self, reason: str = "injected crash") -> bool:
        """Spontaneous hardware failure of the whole accelerator (chaos).

        Reports through the fault manager like any organic fault so the
        normal containment policy (and recovery subscribers) run.  Returns
        False when there is nothing to crash (empty or already-failed tile).
        """
        if self.accelerator is None or self.failed:
            return False
        err = TileFault(f"{self.endpoint}: {reason}")
        err.occurred_at = self.engine.now
        self.fault_manager.report(self, "main", err)
        return True

    def fail_stop(self) -> None:
        """Drain the monitor, drop the serve handler, kill every process."""
        if self.failed:
            return
        self.failed_at = self.engine.now
        self.monitor.drain()
        self.shell.stop_serving()
        # abort in-flight calls so peers don't wait on a dead tile
        for waiter in list(self.shell._pending.values()):
            if not waiter.triggered:
                waiter.fail(TileFault(f"{self.endpoint} fail-stopped"))
        self.shell._pending.clear()
        # NACK requests already delivered but not yet served, so their
        # callers get an error instead of a stranded wait (§4.4 drain:
        # "returning an error to any accelerator that tries to communicate")
        while self.shell.inbox:
            self.monitor._nack(self.shell.inbox.try_get()[1])
        if self.main_process is not None and self.main_process.alive:
            self.main_process.interrupt("fail-stop")
        for child in self.shell.children:
            if child.alive:
                child.interrupt("fail-stop")

    def stop_and_unload(self) -> Event:
        """Tear the tile down for reuse (management-plane operation)."""
        self.fail_stop()
        self.shell.stop_serving()  # even if the tile had already failed
        self.accelerator = None
        self.main_process = None
        done = self.region.unload()
        return done

    def __repr__(self) -> str:  # pragma: no cover
        accel = self.accelerator.name if self.accelerator else "empty"
        return f"<Tile {self.node} {self.endpoint} {accel}>"
