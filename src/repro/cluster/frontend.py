"""FrontEnd: the cluster's health-aware load balancer.

A host on the datacenter fabric (same transport as every client) that
sits between clients and the FPGAs:

* **routing** — resolves ``{"service", "key", "body"}`` requests through
  the :class:`~repro.cluster.directory.ServiceDirectory`: keyed requests
  go to their shard's primary, stateless requests to the least-loaded
  healthy instance;
* **health** — three signals per instance: data-path responses (any
  response marks an instance healthy, so a loaded-but-alive backend is
  never declared dead), periodic pings, and the kernel's own fault
  reports (``fault_manager.on_fault`` fires the cycle a tile drains, so
  a dead FPGA's queued requests fail over immediately instead of waiting
  out a timeout);
* **failover** — each request runs under a :class:`~repro.policy.RetryPolicy`;
  a failed attempt rotates to the next replica (sharded) or another
  instance (stateless).  Writes to sharded services fan out to every
  healthy replica so the failover target has the data (handlers must be
  idempotent — retried writes may be re-applied);
* **admission control** — a bounded in-flight budget; excess requests
  get an immediate ``{"rejected": True}`` reply instead of queueing
  without bound (the difference between a p99 and a death spiral);
* **batching** — per-instance queues flushed as ``("batch", ...)``
  envelopes, amortizing transport round-trips under load.

Tracing: when the cluster's shared recorder is enabled, each request
opens ``frontend:<service>`` with one ``forward:<instance>`` child per
attempt; the trace context rides in the body so the backend span nests
under the forward span — :class:`~repro.obs.index.SpanIndex` then shows
the cross-FPGA critical path end to end.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.directory import ServiceInstance, ServiceSpec
from repro.errors import ConfigError, ServiceUnavailable
from repro.net.transport import HOST_TIMEOUT, HOST_WINDOW, ReliableMux
from repro.policy import RetryPolicy
from repro.sim import Event, StatsRegistry

__all__ = ["FRONTEND_PORT", "BackendHealth", "FrontEnd"]

#: the well-known port clients address their requests to
FRONTEND_PORT = 7000


class BackendHealth:
    """Liveness ledger for one service instance."""

    #: consecutive unanswered probes/attempts before an instance is dead
    DEAD_AFTER = 3

    __slots__ = ("misses", "outstanding", "served", "probes_sent",
                 "probe_misses")

    def __init__(self) -> None:
        self.misses = 0
        self.outstanding = 0  # requests dispatched, not yet resolved
        self.served = 0
        self.probes_sent = 0
        self.probe_misses = 0

    @property
    def healthy(self) -> bool:
        return self.misses < self.DEAD_AFTER

    def mark_ok(self) -> None:
        """Any response — data or pong — proves the instance alive."""
        self.misses = 0

    def mark_miss(self) -> None:
        self.misses += 1

    def mark_dead(self) -> None:
        """Kernel-reported fault: skip the probation period."""
        self.misses = max(self.misses, self.DEAD_AFTER)


class FrontEnd:
    """Health-aware, admission-controlled entry point for the cluster."""

    def __init__(
        self,
        cluster,
        mac: str = "frontend",
        max_pending: int = 64,
        batch_size: int = 4,
        batch_window: int = 200,
        retry: Optional[RetryPolicy] = None,
        heartbeat_interval: int = 10_000,
        max_backlog: int = 256,
        queue_deadline: int = 120_000,
    ):
        if max_pending < 1:
            raise ConfigError(f"max_pending must be >= 1, got {max_pending}")
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        if max_backlog < 0:
            raise ConfigError(f"max_backlog must be >= 0, got {max_backlog}")
        if queue_deadline < 0:
            raise ConfigError(
                f"queue_deadline must be >= 0, got {queue_deadline}")
        self.cluster = cluster
        self.engine = cluster.engine
        self.fabric = cluster.fabric
        self.directory = cluster.directory
        self.spans = cluster.spans
        self.mac = mac
        self.max_pending = max_pending
        self.batch_size = batch_size
        self.batch_window = batch_window
        self.retry = retry if retry is not None else RetryPolicy(
            deadline=300_000, attempt_timeout=30_000,
            backoff_base=200, backoff_cap=2_000,
        )
        self.heartbeat_interval = heartbeat_interval
        self.max_backlog = max_backlog
        self.queue_deadline = queue_deadline

        self.mux = ReliableMux(
            self.engine, self.fabric.transmit, mac, self._on_payload,
            window=HOST_WINDOW, timeout=HOST_TIMEOUT, name=f"fe.{mac}")
        self._irid = itertools.count(1)
        #: internal request id -> (waiter event, instance iid, kind);
        #: kind is "req" (a client waits), "repl" (fire-and-forget write
        #: replication — nobody waits, but losses must be *counted*), or
        #: "probe" (health ping)
        self._awaiting: Dict[int, Tuple[Event, str, str]] = {}
        self._queues: Dict[str, List[Tuple[int, Any, int]]] = {}
        self._kicks: Dict[str, Event] = {}
        self._probe_stuck: Dict[str, int] = {}
        self._bid = itertools.count(1)
        self.health: Dict[str, BackendHealth] = {}
        self._tracked: Dict[str, ServiceInstance] = {}
        self._retired: set = set()

        #: the open-loop submit queue: (submitted_at, srid, req, on_done)
        self._backlog: List[
            Tuple[int, int, Dict[str, Any], Optional[Callable]]] = []
        self._srid = itertools.count(1)
        self._dispatch_kick: Optional[Event] = None
        self._dispatcher_started = False

        self.inflight = 0
        self.requests_admitted = 0
        self.requests_rejected = 0
        self.requests_failed = 0
        self.requests_dropped = 0
        self.responses_sent = 0
        self.batches_sent = 0
        self.failovers = 0
        self.chain_nacks = 0
        #: operator-facing counters (``frontend.writes_unreplicated`` is
        #: the satellite-1 divergence signal for the legacy fan-out path)
        self.stats = StatsRegistry()

        self.fabric.attach(mac, self.mux.deliver_frame)
        cluster.register_fault_listener(self)
        self.track_all()

    # -- instance tracking -------------------------------------------------

    def track_all(self) -> None:
        """Start health tracking for every deployed instance.

        Called at construction and by the cluster after each deploy;
        idempotent per instance.
        """
        for spec in self.directory.services.values():
            for inst in spec.instances:
                self._track(inst)

    def _track(self, inst: ServiceInstance) -> None:
        iid = inst.iid
        if iid in self._tracked or iid in self._retired:
            return
        self._tracked[iid] = inst
        self.health[iid] = BackendHealth()
        self._queues[iid] = []
        self._probe_stuck[iid] = 0
        self.engine.process(self._flusher(inst), name=f"fe.flush.{iid}")
        self.engine.process(self._prober(inst), name=f"fe.probe.{iid}")

    def retire(self, iid: str) -> None:
        """Stop tracking an instance removed by a scale-down.

        The directory already stopped routing to it; this ends its
        flusher/prober processes and fails anything still awaiting it so
        the retry policy re-routes to surviving replicas.  Permanent:
        replica ids are never reused, so a retired iid never comes back.
        """
        if iid not in self._tracked:
            return
        self._retired.add(iid)
        self._tracked.pop(iid, None)
        self._fail_instance(iid, "retired by scale-down")
        # wake a flusher parked on its kick event so it can exit
        kick = self._kicks.pop(iid, None)
        if kick is not None and not kick.triggered:
            kick.succeed(None)

    def on_board_fault(self, fpga: int, node: int, action: str,
                       endpoint: str) -> None:
        """Board fault stream, delivered through the cluster backend —
        synchronously on the shared engine, at the window barrier on
        windowed backends (at most one window late, never early)."""
        if action != "drained":
            return  # a killed context leaves the instance serving
        for inst in self.directory.instances_on(fpga, node=node):
            self._fail_instance(inst.iid, f"{endpoint} drained")

    def _fail_instance(self, iid: str, why: str) -> None:
        """Kernel said this instance is gone: fail its pending work now."""
        health = self.health.get(iid)
        if health is None:
            return
        health.mark_dead()
        queue = self._queues.get(iid, [])
        dead = [irid for irid, _body, _nb in queue]
        del queue[:]
        dead += [irid for irid, (_ev, owner, _kind) in self._awaiting.items()
                 if owner == iid]
        for irid in dead:
            entry = self._awaiting.pop(irid, None)
            if entry is not None:
                waiter, _owner, kind = entry
                health.outstanding -= 1
                if kind == "repl":
                    # nobody waits on a fire-and-forget replica write, but
                    # a silent drop here is exactly how replicas diverge —
                    # count it where operators can see it
                    self.stats.counter("frontend.writes_unreplicated").inc()
                    continue
                if not waiter.triggered:
                    waiter.fail(ServiceUnavailable(f"{iid} down: {why}"))

    # -- fabric plumbing ---------------------------------------------------

    def _on_payload(self, peer_mac: str, payload: Dict[str, Any]) -> None:
        """Client requests in, backend responses in."""
        data = payload.get("data")
        if not (isinstance(data, tuple) and len(data) == 3):
            return
        tag, rid, body = data
        if tag == "req":
            self._admit(peer_mac, rid, body)
        elif tag == "resp":
            self._complete(rid, body)
        elif tag == "batchresp":
            for irid, out_body, _nbytes in body:
                self._complete(irid, out_body)

    def _complete(self, irid: int, body: Any) -> None:
        entry = self._awaiting.pop(irid, None)
        if entry is None:
            return  # late response to an abandoned attempt
        waiter, iid, _kind = entry
        health = self.health[iid]
        health.mark_ok()
        health.outstanding -= 1
        health.served += 1
        if isinstance(body, dict) and "_chain_nack" in body:
            # the member answered but refused (not head/tail, fenced,
            # unconfigured): the node is *healthy*, the routing is stale —
            # fail the attempt so the retry re-resolves the chain
            self.chain_nacks += 1
            self.stats.counter("frontend.chain_nacks").inc()
            if not waiter.triggered:
                waiter.fail(ServiceUnavailable(
                    f"{iid} refused: {body['_chain_nack']}"))
            return
        if not waiter.triggered:
            waiter.succeed(body)

    def _abandon(self, irid: int) -> None:
        """Per-attempt timeout fired: stop waiting, count the miss."""
        entry = self._awaiting.pop(irid, None)
        if entry is None:
            return
        _waiter, iid, _kind = entry
        health = self.health[iid]
        health.outstanding -= 1
        health.mark_miss()

    # -- open-loop submission ---------------------------------------------

    def submit(self, service: str, body: Any = None, key: Any = None,
               write: bool = False, tenant: Optional[str] = None,
               nbytes: int = 64,
               on_done: Optional[Callable[[Dict[str, Any]], None]] = None,
               ) -> bool:
        """Fire-and-record entry point for open-loop traffic generators.

        Never blocks and never back-pressures the caller: the request
        lands in a bounded backlog and a dispatcher process admits from
        it as in-flight slots free up.  Three distinct outcomes:

        * **served** — dispatched within ``queue_deadline``; ``on_done``
          gets the same reply body a fabric client would (``{"ok": ...}``,
          retries and failover included);
        * **rejected** — admitted from the backlog only after waiting
          longer than ``queue_deadline`` (sustained overload): counted as
          an admission reject, ``on_done`` gets ``{"rejected": True}``;
        * **dropped** — the backlog itself is full (extreme overload):
          counted separately in ``requests_dropped``, ``on_done`` is not
          invoked, and ``submit`` returns ``False``.

        Every outcome feeds the SLO engine — an open-loop run's goodput
        is scored against *offered* load, not just admitted load.
        """
        req = {"service": service, "body": body, "key": key,
               "write": write, "tenant": tenant, "nbytes": nbytes}
        if len(self._backlog) >= self.max_backlog:
            self.requests_dropped += 1
            self.stats.counter("frontend.requests_dropped").inc()
            self._observe_slo(service, None, False, tenant)
            return False
        self._backlog.append((self.engine.now, next(self._srid), req,
                              on_done))
        if not self._dispatcher_started:
            self._dispatcher_started = True
            self.engine.process(self._dispatcher(), name="fe.dispatch")
        self._wake_dispatcher()
        return True

    def backlog_depth(self, service: Optional[str] = None) -> int:
        """Queued-but-not-admitted submissions (optionally per service) —
        the open-loop pressure signal the autoscaler folds into its queue
        depth."""
        if service is None:
            return len(self._backlog)
        return sum(1 for _at, _srid, req, _cb in self._backlog
                   if req["service"] == service)

    def _wake_dispatcher(self) -> None:
        kick = self._dispatch_kick
        if kick is not None and not kick.triggered:
            self._dispatch_kick = None
            kick.succeed(None)

    def _dispatcher(self):
        """Admit from the backlog whenever in-flight slots free up."""
        while True:
            while self._backlog and self.inflight < self.max_pending:
                submitted_at, srid, req, on_done = self._backlog.pop(0)
                reply = self._submit_reply(on_done)
                waited = self.engine.now - submitted_at
                if waited > self.queue_deadline:
                    # sustained overload: the slot freed up too late —
                    # this is an admission reject, not a silent drop
                    self.requests_rejected += 1
                    self.stats.counter(
                        "frontend.queue_deadline_rejects").inc()
                    self._observe_slo(req["service"], None, False,
                                      req.get("tenant"))
                    reply({"ok": False, "rejected": True})
                    continue
                self.inflight += 1
                self.requests_admitted += 1
                self.engine.process(
                    self._serve(reply, "submit", srid, req,
                                t0=submitted_at),
                    name=f"fe.submit.{srid}")
            kick = self.engine.event("fe.dispatch.kick")
            self._dispatch_kick = kick
            yield kick

    def _submit_reply(self, on_done: Optional[Callable]) -> Callable:
        """A reply path that lands in a callback instead of on the wire."""
        def reply(body: Any) -> None:
            if on_done is not None:
                on_done(body)
        return reply

    # -- admission + serving ----------------------------------------------

    def _admit(self, client_mac: str, rid: int, req: Any) -> None:
        if not isinstance(req, dict) or "service" not in req:
            self._reply(client_mac, rid, {"ok": False,
                                          "error": "malformed request"})
            return
        if self.inflight >= self.max_pending:
            self.requests_rejected += 1
            self._observe_slo(req["service"], None, False,
                              req.get("tenant"))
            self._reply(client_mac, rid,
                        {"ok": False, "rejected": True})
            return
        self.inflight += 1
        self.requests_admitted += 1
        reply = self._fabric_reply(client_mac, rid)
        self.engine.process(self._serve(reply, client_mac, rid, req),
                            name=f"fe.serve.{rid}")

    def _fabric_reply(self, client_mac: str, rid: int) -> Callable:
        def reply(body: Any) -> None:
            self._reply(client_mac, rid, body)
        return reply

    def _observe_slo(self, service: str, latency: Optional[int],
                     ok: bool, tenant: Optional[str]) -> None:
        """Feed the cluster's SLO engine, if one is enabled.

        A rejected admission observes ``latency=None`` — it consumed no
        budgeted latency but it *is* a bad event against goodput.
        """
        slo = getattr(self.cluster, "slo", None)
        if slo is not None:
            slo.observe(service, latency, ok, self.engine.now,
                        tenant=tenant)

    def _serve(self, reply: Callable, origin: str, rid: int,
               req: Dict[str, Any], t0: Optional[int] = None):
        service = req["service"]
        tenant = req.get("tenant")
        # submit-path requests measure latency from submission, so time
        # spent queued in the backlog counts against the SLO — open-loop
        # honesty: the client "sent" the request at its arrival time
        start = t0 if t0 is not None else self.engine.now
        try:
            spec = self.directory.spec(service)
        except ConfigError as err:
            self.inflight -= 1
            self.requests_failed += 1
            self._observe_slo(service, None, False, tenant)
            self._wake_dispatcher()
            reply({"ok": False, "error": str(err)})
            return
        key = req.get("key")
        is_write = bool(req.get("write"))
        if spec.chained and key is None:
            self.inflight -= 1
            self.requests_failed += 1
            self._observe_slo(service, None, False, tenant)
            self._wake_dispatcher()
            reply({
                "ok": False,
                "error": f"chained service {service!r} requires a key"})
            return
        candidates = spec.candidates(key)
        trace_id = root = 0
        if self.spans.enabled:
            trace_id = self.spans.new_trace()
            root = self.spans.open(trace_id, f"frontend:{service}",
                                   "cluster", self.mac, self.engine.now,
                                   service=service, key=key)
        rotation = itertools.count()
        # a stable write id across this request's *frontend* attempts:
        # the chain head dedups retried writes it already logged
        wid = f"{origin}#{rid}" if (spec.chained and is_write) else None

        def attempt(attempt_timeout: int) -> Event:
            if spec.chained:
                inst = self._pick_chain(spec, key, is_write)
            else:
                inst = self._pick(spec, candidates, next(rotation))
            return self._dispatch(spec, inst, req, attempt_timeout,
                                  trace_id, root, wid=wid)

        def count_failover() -> None:
            self.failovers += 1

        done = self.retry.drive(
            self.engine, attempt, retry_on=(ServiceUnavailable,),
            describe=f"route {service!r}", on_retry=count_failover,
            name=f"fe.route.{rid}",
        )
        failed = False
        try:
            out_body = yield done
        except BaseException as err:
            failed = True
            self.requests_failed += 1
            reply({"ok": False, "error": str(err)})
        else:
            reply({"ok": True, "body": out_body})
        finally:
            self.inflight -= 1
            self._observe_slo(service, self.engine.now - start,
                              not failed, tenant)
            self._wake_dispatcher()
            if root:
                self.spans.close(root, self.engine.now, failed=failed)

    def _pick(self, spec: ServiceSpec, candidates: List[ServiceInstance],
              rotation: int) -> ServiceInstance:
        """Choose the attempt's target; raises when nothing is healthy.

        Sharded requests walk the replica list in order (primary first),
        advancing one slot per retry.  Stateless requests go to the
        least-loaded healthy instance.  The raise is retryable — an
        instance may come back (recovery restart) before the deadline.
        """
        healthy = [i for i in candidates if self.health[i.iid].healthy]
        if not healthy:
            raise ServiceUnavailable(
                f"no healthy instance of {spec.name!r}"
            )
        if spec.sharded:
            return healthy[rotation % len(healthy)]
        return min(healthy,
                   key=lambda i: (self.health[i.iid].outstanding, i.replica))

    def _pick_chain(self, spec: ServiceSpec, key: Any,
                    is_write: bool) -> ServiceInstance:
        """Chained routing: writes to the head, reads to the tail.

        Re-resolved *per attempt* — chain repair flips the directory's
        chain order mid-request, and the retry must land on the new
        head/tail, not whatever the first attempt saw.  The raise is
        retryable: mid-repair there may briefly be no routable member.
        """
        shard = spec.ring.shard_for(key)
        chain = spec.chains.get(shard, [])
        if not chain:
            raise ServiceUnavailable(
                f"{spec.name!r} shard {shard} has no chain"
            )
        iid = chain[0] if is_write else chain[-1]
        inst = spec.instance(iid)
        if inst is None or not inst.ready:
            raise ServiceUnavailable(f"{iid} is not ready")
        health = self.health.get(iid)
        if health is None or not health.healthy:
            raise ServiceUnavailable(f"{iid} is unhealthy")
        return inst

    def _dispatch(self, spec: ServiceSpec, inst: ServiceInstance,
                  req: Dict[str, Any], attempt_timeout: int,
                  trace_id: int, root: int,
                  wid: Optional[str] = None) -> Event:
        """Queue one attempt on ``inst``; event resolves with the body."""
        fwd = 0
        if trace_id:
            fwd = self.spans.open(trace_id, f"forward:{inst.iid}",
                                  "cluster", self.mac, self.engine.now,
                                  parent_id=root, fpga=inst.fpga,
                                  node=inst.node)
        nbytes = int(req.get("nbytes", 64))
        irid, inner = self._enqueue(inst,
                                    self._wire_body(req, trace_id, fwd,
                                                    wid=wid),
                                    nbytes)
        if req.get("write") and spec.sharded and not spec.chained:
            # legacy best-effort replication (the client's ack is the
            # addressed replica's alone; chained services replicate
            # through the chain instead and never take this path)
            for other in spec.candidates(req.get("key")):
                if other.iid != inst.iid and self.health[other.iid].healthy:
                    self._enqueue(other,
                                  self._wire_body(req, trace_id, fwd),
                                  nbytes, fire_and_forget=True)
        outer = self.engine.event(f"fe.attempt.{inst.iid}")

        def settle(ev: Event) -> None:
            if fwd:
                self.spans.close(fwd, self.engine.now, failed=ev.failed)
            if outer.triggered:
                return
            if ev.failed:
                outer.fail(ev.value)
            else:
                outer.succeed(ev.value)

        inner.add_callback(settle)

        def expire(_ev: Event) -> None:
            if inner.triggered:
                return
            self._abandon(irid)
            if fwd:
                self.spans.close(fwd, self.engine.now, timed_out=True)
            if not outer.triggered:
                outer.fail(ServiceUnavailable(
                    f"{inst.iid} did not answer in {attempt_timeout}"
                ))

        self.engine.timeout(attempt_timeout).add_callback(expire)
        return outer

    @staticmethod
    def _wire_body(req: Dict[str, Any], trace_id: int, span: int,
                   wid: Optional[str] = None) -> Any:
        body = req.get("body")
        if isinstance(body, dict) and (trace_id or wid is not None):
            body = dict(body)
            if trace_id:
                body["_trace"] = (trace_id, span)
            if wid is not None:
                body["_wid"] = wid
        return body

    def _enqueue(self, inst: ServiceInstance, body: Any, nbytes: int,
                 fire_and_forget: bool = False) -> Tuple[int, Event]:
        irid = next(self._irid)
        waiter = self.engine.event(f"fe.req#{irid}")
        kind = "repl" if fire_and_forget else "req"
        self._awaiting[irid] = (waiter, inst.iid, kind)
        self.health[inst.iid].outstanding += 1
        self._queues[inst.iid].append((irid, body, nbytes))
        kick = self._kicks.pop(inst.iid, None)
        if kick is not None and not kick.triggered:
            kick.succeed(None)
        if fire_and_forget:
            # cap how long the bookkeeping lingers if the replica dies
            self.engine.timeout(self.retry.attempt_timeout).add_callback(
                lambda _ev, r=irid: self._abandon_quietly(r))
        return irid, waiter

    def _abandon_quietly(self, irid: int) -> None:
        """Timebox a fire-and-forget replica write.

        Still pending after a full attempt timeout means the replica
        never acked it — the write is, as far as anyone can prove,
        unreplicated.  The old code dropped this on the floor; divergence
        between replicas was invisible until a failover served stale
        data.  No health miss is charged (the primary path owns health).
        """
        entry = self._awaiting.pop(irid, None)
        if entry is not None:
            self.health[entry[1]].outstanding -= 1
            self.stats.counter("frontend.writes_unreplicated").inc()

    # -- per-instance batching + probing ----------------------------------

    def _flusher(self, inst: ServiceInstance):
        """Drain one instance's queue as batch envelopes."""
        iid = inst.iid
        queue = self._queues[iid]
        mac = self.cluster.mac(inst.fpga)
        while True:
            if iid in self._retired:
                return
            if not queue:
                kick = self.engine.event(f"fe.kick.{iid}")
                self._kicks[iid] = kick
                yield kick
            if len(queue) < self.batch_size and self.batch_window > 0:
                yield self.batch_window  # brief accumulation window
            take = queue[:self.batch_size]
            del queue[:self.batch_size]
            # entries may have been failed over while we accumulated
            take = [(irid, body, nb) for irid, body, nb in take
                    if irid in self._awaiting]
            if not take:
                continue
            bid = next(self._bid)
            entries = [(irid, body) for irid, body, _nb in take]
            nbytes = sum(nb for _irid, _body, nb in take) + 16 * len(take)
            sent = self.mux.peer(mac).send(
                {"port": inst.port, "data": ("batch", bid, entries),
                 "src_mac": self.mac},
                payload_bytes=max(64, nbytes),
            )
            self.batches_sent += 1
            # pace on the transport ack, but never wedge on a dead peer
            yield self.engine.any_of(
                [sent, self.engine.timeout(self.mux.timeout)])

    def _prober(self, inst: ServiceInstance):
        """Periodic liveness pings (answered without handler cost)."""
        iid = inst.iid
        mac = self.cluster.mac(inst.fpga)
        health = self.health[iid]
        while True:
            yield self.heartbeat_interval
            if iid in self._retired:
                return
            if self._probe_stuck[iid] >= 2:
                # transport to this board is wedged (detached MAC):
                # further probes would only pile up in the send window
                continue
            irid = next(self._irid)
            waiter = self.engine.event(f"fe.probe#{irid}")
            self._awaiting[irid] = (waiter, iid, "probe")
            health.outstanding += 1
            health.probes_sent += 1
            self._probe_stuck[iid] += 1
            sent = self.mux.peer(mac).send(
                {"port": inst.port, "data": ("req", irid, {"op": "ping"}),
                 "src_mac": self.mac},
                payload_bytes=16,
            )
            sent.add_callback(lambda _ev, i=iid: self._probe_unstick(i))
            expire = self.engine.timeout(self.heartbeat_interval)
            try:
                yield self.engine.any_of([waiter, expire])
            except ServiceUnavailable:
                # instance declared dead mid-probe (fault hook failed the
                # waiter); the bookkeeping is already cleaned up
                continue
            if not waiter.triggered:
                self._abandon(irid)
                health.probe_misses += 1

    def _probe_unstick(self, iid: str) -> None:
        self._probe_stuck[iid] -= 1

    # -- client replies ----------------------------------------------------

    def _reply(self, client_mac: str, rid: int, body: Any) -> None:
        self.responses_sent += 1
        self.engine.process(
            self._send_reply(client_mac, rid, body),
            name=f"fe.reply.{rid}",
        )

    def _send_reply(self, client_mac: str, rid: int, body: Any):
        yield self.mux.peer(client_mac).send(
            {"port": FRONTEND_PORT, "data": ("resp", rid, body),
             "src_mac": self.mac},
            payload_bytes=64,
        )

    # -- introspection -----------------------------------------------------

    def telemetry(self) -> Dict[str, Any]:
        """Operator snapshot: routing counters + the stats registry.

        ``writes_unreplicated`` is the headline number — every
        best-effort replica write that was never acknowledged.  Nonzero
        means replicas of a legacy (non-chained) sharded service may have
        diverged and a failover can serve stale data.
        """
        counters = self.stats.snapshot()["counters"]
        return {
            "requests_admitted": self.requests_admitted,
            "requests_rejected": self.requests_rejected,
            "requests_failed": self.requests_failed,
            "requests_dropped": self.requests_dropped,
            "backlog_depth": len(self._backlog),
            "responses_sent": self.responses_sent,
            "batches_sent": self.batches_sent,
            "failovers": self.failovers,
            "inflight": self.inflight,
            "chain_nacks": self.chain_nacks,
            "writes_unreplicated": int(
                counters.get("frontend.writes_unreplicated", 0)),
            "counters": counters,
            "health": self.health_table(),
        }

    def health_table(self) -> Dict[str, Dict[str, Any]]:
        """Live health snapshot, keyed by instance id."""
        return {
            iid: {"healthy": h.healthy, "misses": h.misses,
                  "outstanding": h.outstanding, "served": h.served,
                  "probes_sent": h.probes_sent,
                  "probe_misses": h.probe_misses}
            for iid, h in self.health.items()
        }
