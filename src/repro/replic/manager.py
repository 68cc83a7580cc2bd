"""ReplicationManager: the chain-replication control plane.

A fabric host (MAC ``replic``) that owns chain *membership* the
way the front-end owns *routing*: it configures chains at deploy time
and repairs broken chains unattended.  It hears about boards the way the
front-end does, from two sources: the backend's fault stream (a drained
tile, a killed board) and the front-end's heartbeat record — a
partitioned board reports nothing, so beats that go unanswered are what
reveal it.  It sends nothing while every board is up.  Repair is three
moves:

* **promote** — drop the dead/partitioned members, re-issue
  ``chain.cfg`` to the survivors at ``epoch + 1`` (tail-first, so the
  member serving reads never advertises state its new upstream doesn't
  hold), and flip the directory's chain order.  Any acknowledged write
  exists on *every* member (acks require a tail commit and entries flow
  strictly head→tail), so survivors need no data movement — promotion is
  pure reconfiguration, which is what makes RPO = 0;
* **splice** — restore the replication factor: place a fresh replica on
  a board outside the shard's current failure domains, install the
  tail's checkpoint (``chain.snap`` → ``chain.restore``), then configure
  it as the new tail at yet another epoch — its predecessor streams the
  log suffix above the checkpoint.  The chain serves throughout;
* **fence** — members cut out of the chain are told ``chain.fence``
  (retried until it lands — a partitioned board only hears it after the
  partition heals).  Fencing is belt-and-braces: the epoch check already
  nacks a stale head's forwards, which self-fences it.

All repair ordering is deterministic (sorted shard order, fixed tick,
fixed RPC timeouts) so same-seed chaos campaigns byte-match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigError, DeadlineExceeded
from repro.sim import Event
from repro.workloads.client import RemoteClientHost

__all__ = ["RepairEvent", "ReplicationManager"]

#: the manager's address on the fabric
MAC = "replic"
#: default timeout of one control RPC to a chain member
RPC_TIMEOUT = 25_000
#: timeout of a checkpoint transfer (``chain.snap`` / ``chain.restore``)
SNAPSHOT_TIMEOUT = 120_000
#: cycles between two ticks of the loop that reads board liveness and
#: retries pending fences and deferred splices
PROBE_INTERVAL = 20_000
#: cycles the repair loop lets a burst of problems settle before acting
REPAIR_SETTLE = 2_000
#: how long a splice waits for its replacement replica to load
RECONFIG_TIMEOUT = 1_200_000


@dataclass
class RepairEvent:
    """One completed repair action, for the R2 report."""

    kind: str  # "promote" | "splice" | "deferred" | "lost"
    service: str
    shard: int
    epoch: int
    detected_at: int
    completed_at: int

    @property
    def latency(self) -> int:
        return self.completed_at - self.detected_at

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "service": self.service,
                "shard": self.shard, "epoch": self.epoch,
                "detected_at": self.detected_at,
                "completed_at": self.completed_at,
                "latency": self.latency}


class ReplicationManager:
    """Configures, watches, and repairs replication chains."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.engine = cluster.engine
        self.directory = cluster.directory

        #: the manager's face on the fabric: the one host-side request
        #: client (rid bookkeeping, response demux, per-request timeout)
        self.client = RemoteClientHost(self.engine, cluster.fabric, MAC)
        self._managed: List[str] = []
        #: (service, shard) -> cycle the problem was first seen
        self._dirty: Dict[Tuple[str, int], int] = {}
        self._kick: Optional[Event] = None
        #: shards that could not be brought back to full replication yet
        self._deferred: Set[Tuple[str, int]] = set()
        #: shards with a splice in flight (guards duplicate replacements)
        self._splicing: Set[Tuple[str, int]] = set()
        #: iid -> (instance, fencing epoch): fence until acknowledged
        self._to_fence: Dict[str, Tuple[Any, int]] = {}

        self.repairs: List[RepairEvent] = []
        self.chains_configured = 0
        self.promotes = 0
        self.splices = 0
        self.fences_acked = 0
        self.rpc_timeouts = 0
        self.replacements_deferred = 0

        cluster.register_fault_listener(self)
        self.engine.process(self._repair_loop(), name="replic.repair")
        self.engine.process(self._tick(), name="replic.tick")

    # -- control RPCs ------------------------------------------------------

    def _rpc(self, inst, body: Dict[str, Any], nbytes: int = 64,
             timeout: Optional[int] = None):
        """Process generator: one control RPC to a chain member.
        Returns the reply body, or None on timeout (dead/partitioned)."""
        try:
            return (yield self.client.request(
                self.cluster.mac(inst.fpga), inst.port, body,
                nbytes=max(64, nbytes),
                timeout=timeout if timeout is not None else RPC_TIMEOUT))
        except DeadlineExceeded:
            self.rpc_timeouts += 1
            return None

    def _rpc_retry(self, inst, body: Dict[str, Any], attempts: int = 5,
                   nbytes: int = 64, timeout: Optional[int] = None):
        """Retry an RPC a bounded number of times (e.g. while the target
        tile is still reconfiguring)."""
        for _ in range(attempts):
            reply = yield from self._rpc(inst, body, nbytes=nbytes,
                                         timeout=timeout)
            if reply is not None:
                return reply
        return None

    # -- deploy-time configuration -----------------------------------------

    def manage(self, service: str) -> Event:
        """Adopt ``service`` (a deployed chain service): configure every
        chain at epoch 1 and watch it from then on.  Returns an event that
        succeeds once all chains are configured."""
        spec = self.directory.spec(service)
        if service not in self._managed:
            self._managed.append(service)
        done = self.engine.event(f"replic.cfg.{service}")

        def run():
            # wait out partial reconfiguration: configuring a chain whose
            # members haven't bound their ports would read as dead members
            # and trigger a bogus repair before the service ever served
            waited = 0
            while not all(inst.ready for inst in spec.instances) \
                    and waited < 2_000_000:
                yield 5_000
                waited += 5_000
            for shard in sorted(spec.chains):
                order = [spec.instance(iid) for iid in spec.chains[shard]]
                epoch = spec.epochs.get(shard, 0) + 1
                ok = yield from self._configure_chain(spec, order, epoch, {})
                if ok:
                    self.directory.set_chain(service, shard,
                                             [i.iid for i in order], epoch)
                    self.chains_configured += 1
                else:
                    self._mark_dirty(service, shard)
            done.succeed(None)

        self.engine.process(run(), name=f"replic.cfg.{service}")
        return done

    def _addr(self, inst) -> Tuple[str, int]:
        return (self.cluster.mac(inst.fpga), inst.port)

    def _reachable(self, fpga: int) -> bool:
        """Not killed, and no running front-end holds the board down."""
        if fpga in self.cluster.killed:
            return False
        frontend = self.cluster.frontend
        board = (frontend.boards.get(self.cluster.mac(fpga))
                 if frontend is not None else None)
        return board is None or board.up

    # -- failure detection -------------------------------------------------

    def on_board_fault(self, fpga: int, node: int, action: str,
                       endpoint: str) -> None:
        """The backend's fault stream: a drained chain member dirties its
        shard."""
        if action != "drained":
            return
        for inst in self.directory.instances_on(fpga, node=node):
            spec = self.directory.services.get(inst.service)
            if spec is not None and spec.chained and inst.shard is not None:
                self._mark_dirty(inst.service, inst.shard)

    def _mark_dirty(self, service: str, shard: int) -> None:
        key = (service, shard)
        self._deferred.discard(key)
        if key not in self._dirty:
            self._dirty[key] = self.engine.now
        if self._kick is not None and not self._kick.triggered:
            self._kick.succeed(None)

    def _tick(self):
        """One tick per ``PROBE_INTERVAL``, on its multiples whatever
        cycle the manager started on, which sends nothing while every
        board is up.  A shard with a member on a board that is down is
        marked dirty (a heal is heard the same way: the board's first
        answered beat makes it reachable again); then pending fences and
        deferred splices are retried."""
        while True:
            yield PROBE_INTERVAL - self.engine.now % PROBE_INTERVAL
            for service in list(self._managed):
                spec = self.directory.services.get(service)
                if spec is None:
                    continue
                for shard in sorted(spec.chains):
                    members = map(spec.instance, spec.chains[shard])
                    if any(not self._reachable(inst.fpga) for inst in members
                           if inst is not None and inst.ready):
                        self._mark_dirty(service, shard)
            yield from self._retry_fences()
            self._retry_deferred()

    def _eligible_boards(self, spec, shard: int) -> List[int]:
        """Boards a fresh replica of ``shard`` could land on right now."""
        members = {inst.fpga
                   for inst in map(spec.instance, spec.chains.get(shard, []))
                   if inst is not None}
        return [i for i in range(self.cluster.n_fpgas)
                if self._reachable(i) and i not in members
                and self.directory.free_tiles(i)]

    def _retry_deferred(self) -> None:
        """Re-attempt deferred replacements once capacity exists.

        Capacity appears when a board answers its beats again or a fenced
        ex-member's tile is torn down."""
        for key in sorted(self._deferred):
            service, shard = key
            spec = self.directory.services.get(service)
            if spec is None or not spec.chains.get(shard):
                continue
            if len(spec.chains[shard]) >= spec.replication:
                self._deferred.discard(key)
                continue
            if self._eligible_boards(spec, shard):
                self._deferred.discard(key)
                if key not in self._dirty:
                    self._dirty[key] = self.engine.now
        if self._dirty and self._kick is not None \
                and not self._kick.triggered:
            self._kick.succeed(None)

    def _retry_fences(self):
        for iid in sorted(self._to_fence):
            inst, epoch = self._to_fence[iid]
            if not self._reachable(inst.fpga):
                continue  # unreachable; retry once it answers its beats
            reply = yield from self._rpc(
                inst, {"op": "chain.fence", "epoch": epoch}, nbytes=16)
            if reply is not None and reply.get("ok"):
                del self._to_fence[iid]
                self.fences_acked += 1
                # a fenced ex-member is inert forever; free its tile so
                # repair splices can reuse the slot
                self.directory.teardown(inst)

    # -- repair ------------------------------------------------------------

    def _repair_loop(self):
        while True:
            if not self._dirty:
                self._kick = self.engine.event("replic.kick")
                yield self._kick
                self._kick = None
            # let a board's worth of fault reports coalesce into one pass
            yield REPAIR_SETTLE
            while self._dirty:
                # promotes first (cheap reconfiguration — restores every
                # shard's head/tail in microseconds), splices after
                # (checkpoint + partial reconfiguration — restores the
                # replication factor in peace, the chains already serve)
                to_splice = []
                while self._dirty:
                    key = min(self._dirty)
                    detected = self._dirty.pop(key)
                    short = yield from self._repair(key[0], key[1], detected)
                    if short:
                        to_splice.append((key[0], key[1], detected))
                # splices for different shards are independent (distinct
                # chains, distinct target tiles) and each one sits out a
                # full partial-reconfiguration — run them detached so the
                # loop keeps reacting to new faults meanwhile; the
                # in-flight set stops a re-dirtied shard from growing two
                # replacements at once
                for service, shard, detected in to_splice:
                    key = (service, shard)
                    if key in self._dirty or key in self._splicing:
                        continue  # re-dirtied or already growing a replica
                    self._splicing.add(key)
                    self.engine.process(
                        self._restore_replication(service, shard, detected),
                        name=f"replic.splice.{service}.{shard}")

    def _repair(self, service: str, shard: int, detected: int):
        """Promote the shard's survivors; returns True when the chain is
        left below its replication factor (the caller splices later)."""
        spec = self.directory.services.get(service)
        if spec is None or shard not in spec.chains:
            return False
        chain = list(spec.chains[shard])
        survivors: List[Tuple[Any, Dict[str, Any]]] = []
        cut: List[Any] = []
        for iid in chain:
            inst = spec.instance(iid)
            if inst is None:
                continue
            if not self._reachable(inst.fpga):
                cut.append(inst)
                continue
            stat = yield from self._rpc(inst, {"op": "chain.stat"},
                                        nbytes=16)
            if stat is None or not stat.get("ok"):
                cut.append(inst)
            else:
                survivors.append((inst, stat))
        if not cut and len(survivors) == len(chain):
            # false alarm (the board answered again before this pass) —
            # but a previously-deferred short chain still wants a splice
            return len(chain) < spec.replication
        if not survivors:
            self.repairs.append(RepairEvent(
                "lost", service, shard, spec.epochs.get(shard, 0),
                detected, self.engine.now))
            self._deferred.add((service, shard))
            return False

        if cut or len(survivors) < len(chain):
            # ---- promote: survivors-only chain at epoch + 1 ----
            epoch = spec.epochs.get(shard, 0) + 1
            order = [inst for inst, _ in survivors]
            stats = {inst.iid: stat for inst, stat in survivors}
            ok = yield from self._configure_chain(spec, order, epoch, stats)
            if not ok:
                # another member died mid-repair; take it from the top
                self._mark_dirty(service, shard)
                return False
            self.directory.set_chain(service, shard,
                                     [i.iid for i in order], epoch)
            for inst in cut:
                self._to_fence[inst.iid] = (inst, epoch)
                if self.cluster.frontend is not None:
                    self.cluster.frontend.retire(inst.iid)
                self.directory.remove_chain_member(service, shard, inst.iid)
            self.promotes += 1
            self.repairs.append(RepairEvent(
                "promote", service, shard, epoch, detected,
                self.engine.now))
        return len(spec.chains[shard]) < spec.replication

    def _restore_replication(self, service: str, shard: int, detected: int):
        """Splice fresh replicas until the chain is back to full strength."""
        try:
            spec = self.directory.services.get(service)
            if spec is None or shard not in spec.chains \
                    or not spec.chains[shard]:
                return
            while len(spec.chains[shard]) < spec.replication:
                grew = yield from self._splice(spec, service, shard,
                                              detected)
                if not grew:
                    self._deferred.add((service, shard))
                    self.replacements_deferred += 1
                    self.repairs.append(RepairEvent(
                        "deferred", service, shard, spec.epochs[shard],
                        detected, self.engine.now))
                    return
        finally:
            self._splicing.discard((service, shard))

    def _configure_chain(self, spec, order: List[Any], epoch: int,
                         stats: Dict[str, Dict[str, Any]]):
        """Issue ``chain.cfg`` tail-first.  ``stats`` carries each member's
        last known ``last_index`` so predecessors know where to stream
        from; cfg replies refresh it.  Returns True when every member
        acknowledged the new epoch."""
        n = len(order)
        for i in range(n - 1, -1, -1):
            inst = order[i]
            if n == 1:
                role = "solo"
            elif i == 0:
                role = "head"
            elif i == n - 1:
                role = "tail"
            else:
                role = "mid"
            succ = order[i + 1] if i < n - 1 else None
            body = {
                "op": "chain.cfg", "epoch": epoch, "role": role,
                "self": self._addr(inst),
                "pred": self._addr(order[i - 1]) if i > 0 else None,
                "succ": self._addr(succ) if succ is not None else None,
                "succ_index": (stats.get(succ.iid, {}).get("last_index", 0)
                               if succ is not None else None),
            }
            reply = yield from self._rpc_retry(inst, body)
            if reply is not None and not reply.get("ok") \
                    and reply.get("error") == "log truncated":
                # the successor is behind this member's retained log:
                # checkpoint transfer first, then stream the remainder
                moved = yield from self._snapshot_to(inst, succ)
                if moved is None:
                    return False
                body["succ_index"] = moved
                reply = yield from self._rpc_retry(inst, body)
            if reply is None or not reply.get("ok"):
                return False
            stats[inst.iid] = reply
        return True

    def _snapshot_to(self, src, dst):
        """Install ``src``'s checkpoint on ``dst``; returns the checkpoint
        index (what ``dst`` now holds) or None on failure."""
        snap = yield from self._rpc_retry(
            src, {"op": "chain.snap"}, attempts=3,
            timeout=SNAPSHOT_TIMEOUT)
        if snap is None or not snap.get("ok"):
            return None
        state = snap["state"]
        nbytes = 64 + 48 * len(state.get("store", {})) \
            if isinstance(state, dict) else 256
        reply = yield from self._rpc_retry(
            dst, {"op": "chain.restore", "state": state,
                  "index": snap["index"]},
            attempts=3, nbytes=nbytes, timeout=SNAPSHOT_TIMEOUT)
        if reply is None or not reply.get("ok"):
            return None
        return int(snap["index"])

    def _splice(self, spec, service: str, shard: int, detected: int):
        """Grow the chain by one replica without stopping it.

        Order matters: the new member is checkpointed and configured as
        tail *first* (at the new epoch), and the directory's chain/epoch
        flip *last* — reads keep landing on the old tail until the new
        tail provably holds at least its committed state."""
        boards = self._eligible_boards(spec, shard)
        if not boards:
            return False
        try:
            new_inst, started = self.directory.add_chain_replica(
                service, shard, boards[0])
        except ConfigError:
            return False
        # wait out the tile's partial reconfiguration — hundreds of
        # kilocycles per bitstream, far beyond any RPC timeout
        yield self.engine.any_of(
            [started, self.engine.timeout(RECONFIG_TIMEOUT)])
        # every way out below that is not a splice unwinds the replica's
        # placement (it never joined the chain)
        if not new_inst.ready:
            self.directory.teardown(new_inst)
            return False
        chain = list(spec.chains[shard])
        order = [spec.instance(iid) for iid in chain]
        tail = order[-1]
        base_epoch = spec.epochs[shard]
        moved = yield from self._snapshot_to(tail, new_inst)
        if moved is None:
            self.directory.teardown(new_inst)
            self._mark_dirty(service, shard)
            return False
        epoch = base_epoch + 1
        stats: Dict[str, Dict[str, Any]] = {
            new_inst.iid: {"last_index": moved}}
        ok = yield from self._configure_chain(
            spec, order + [new_inst], epoch, stats)
        if not ok or spec.epochs[shard] != base_epoch:
            # a member failed mid-splice, or a promote reconfigured the
            # chain underneath it (the order just configured is stale):
            # drop the replica, let the repair loop re-evaluate
            self.directory.teardown(new_inst)
            self._mark_dirty(service, shard)
            return False
        self.directory.set_chain(service, shard,
                                 [i.iid for i in order] + [new_inst.iid],
                                 epoch)
        if self.cluster.frontend is not None:
            self.cluster.frontend.track_all()
        self.splices += 1
        self.repairs.append(RepairEvent(
            "splice", service, shard, epoch, detected, self.engine.now))
        return True

    # -- reporting ---------------------------------------------------------

    def repair_summary(self) -> Dict[str, Any]:
        latencies = [r.latency for r in self.repairs
                     if r.kind in ("promote", "splice")]
        return {
            "chains_configured": self.chains_configured,
            "promotes": self.promotes,
            "splices": self.splices,
            "fences_acked": self.fences_acked,
            "rpc_timeouts": self.rpc_timeouts,
            "replacements_deferred": self.replacements_deferred,
            "repair_latency_max": max(latencies) if latencies else 0,
            "repair_latency_mean": (sum(latencies) // len(latencies)
                                    if latencies else 0),
            "events": [r.to_dict() for r in self.repairs],
        }
