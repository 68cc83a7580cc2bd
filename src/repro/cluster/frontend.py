"""FrontEnd: the cluster's health-aware load balancer.

A host on the datacenter fabric (the transport every host speaks) that
sits between the cluster's callers and the FPGAs.  A request enters by
one door, :meth:`FrontEnd.submit`; the fabric carries only what the
front-end sends the boards and what they answer:

* **routing** — resolves ``{"service", "key", "body"}`` requests through
  the :class:`~repro.cluster.directory.ServiceDirectory`: keyed requests
  go to their shard's primary, stateless requests to the least-loaded
  healthy instance;
* **health** — one heartbeat per *board* per ``PROBE_INTERVAL``,
  answered by the transport ACK of that board's network tile (the board
  is up while its network tile receives; nothing crosses its NoC); per
  instance, the kernel's own fault reports (``fault_manager.on_fault``
  fires the cycle a tile drains, so a dead FPGA's queued requests fail
  over immediately instead of waiting out a timeout) and the data path's
  attempt time boxes.  Any answer marks an instance healthy, so a
  loaded-but-alive backend is never declared dead; only an instance
  marked down is pinged, so that a restarted tile is heard again;
* **failover** — each request is a record that runs the
  :class:`~repro.policy.RetryLoop` as engine callbacks (no process, no
  event per attempt); a failed attempt rotates to the next replica
  (sharded) or another instance (stateless).  Writes to sharded
  services fan out to every healthy replica so the failover target has
  the data (handlers must be idempotent — retried writes may be
  re-applied);
* **admission control** — a bounded in-flight budget fed from a bounded
  backlog: a submission that finds the backlog full is dropped at once,
  and one that waited in it past ``queue_deadline`` is answered
  ``{"rejected": True}`` instead of served late (the difference between a
  p99 and a death spiral);
* **batching** — per-instance queues flushed as ``("batch", ...)``
  envelopes, amortizing transport round-trips under load; an instance's
  flusher is a flag and a pacing token on its record, not a process.

Three records carry it: a :class:`BoardBeat` per board, a
:class:`BackendHealth` per instance and an ``_awaiting`` entry per
attempt, which only ``_resolve`` takes out again — a client attempt's
entry holds its request, whose next step ``_resolve`` runs in the same
call.  Each step runs where its cause fires; DESIGN.md "Cluster layer"
lists the three zero-delay hops that remain and why.

Tracing: when the cluster's shared recorder is enabled, each request
opens ``frontend:<service>`` with one ``forward:<instance>`` child per
attempt; the trace context rides in the body so the backend span nests
under the forward span — :class:`~repro.obs.index.SpanIndex` then shows
the cross-FPGA critical path end to end.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.cluster.directory import ServiceInstance, ServiceSpec
from repro.errors import ConfigError, ServiceUnavailable
from repro.kernel.services import HEARTBEAT_PORT
from repro.net.transport import (
    HOST_TIMEOUT,
    HOST_WINDOW,
    ReliableEndpoint,
    ReliableMux,
)
from repro.policy import RetryLoop, RetryPolicy
from repro.sim import StatsRegistry

__all__ = ["FRONTEND_MAC", "BackendHealth", "BoardBeat", "FrontEnd"]

#: the front-end's fabric address
FRONTEND_MAC = "frontend"
#: a flush carries up to BATCH_SIZE attempts; a shorter queue is given
#: BATCH_WINDOW cycles to fill first
BATCH_SIZE = 4
BATCH_WINDOW = 200
#: cycles between liveness rounds: a heartbeat per board, a ping per
#: instance marked down; a beat unanswered by the next round is a miss
PROBE_INTERVAL = 10_000
#: consecutive misses before a board or an instance is down
DEAD_AFTER = 3


class BoardBeat:
    """The front-end's liveness record of one board: its heartbeats."""

    __slots__ = ("mac", "conn", "backends", "beat", "unacked", "misses")

    def __init__(self, mac: str, conn: ReliableEndpoint) -> None:
        self.mac = mac  # its address on the fabric
        self.conn = conn  # the front-end's transport connection to it
        self.backends: List["BackendHealth"] = []  # the instances on it
        self.beat = 0  # id of the last round's beat while it is unacked
        self.unacked = 0  # beats the transport has not got acked yet
        self.misses = 0

    def acked(self, beat: int) -> None:
        """The transport ACKed ``beat``: the board's network tile received
        it, which is the board's answer."""
        self.unacked -= 1
        self.misses = 0
        if beat == self.beat:
            self.beat = 0

    @property
    def up(self) -> bool:
        """The one liveness rule for a board, which every control plane
        reads: fewer than ``DEAD_AFTER`` of its beats missed in a row."""
        return self.misses < DEAD_AFTER


class BackendHealth:
    """Everything the front-end keeps about one service instance: its
    board, its liveness ledger and the batch queue its flusher drains."""

    __slots__ = ("inst", "board", "queue", "kick", "pace", "ping", "retired",
                 "misses", "outstanding", "served", "probes_sent")

    def __init__(self, inst: ServiceInstance, board: BoardBeat) -> None:
        self.inst = inst
        self.board = board
        #: (irid, body, nbytes) attempts waiting for the next batch
        self.queue: List[Tuple[int, Any, int]] = []
        #: the flusher is parked until an attempt is queued (or a retire);
        #: a new record starts parked
        self.kick = True
        #: the id of the batch the flusher paces on, until its ACK or its
        #: time box wins the race
        self.pace: Optional[int] = None
        self.ping = 0  # id of the last ping sent while it was down
        self.retired = False
        self.misses = 0
        self.outstanding = 0  # client attempts dispatched, not yet resolved
        self.served = 0
        self.probes_sent = 0

    @property
    def healthy(self) -> bool:
        """Neither the instance nor its board is down (``_pick`` checks
        the same per candidate, inline)."""
        return self.misses < DEAD_AFTER and self.board.misses < DEAD_AFTER


class FrontEnd:
    """Health-aware, admission-controlled entry point for the cluster."""

    def __init__(
        self,
        cluster,
        max_pending: int = 64,
        retry: Optional[RetryPolicy] = None,
        max_backlog: int = 256,
        queue_deadline: int = 120_000,
    ):
        if max_pending < 1:
            raise ConfigError(f"max_pending must be >= 1, got {max_pending}")
        if max_backlog < 0:
            raise ConfigError(f"max_backlog must be >= 0, got {max_backlog}")
        if queue_deadline < 0:
            raise ConfigError(
                f"queue_deadline must be >= 0, got {queue_deadline}")
        self.cluster = cluster
        self.engine = cluster.engine
        self.directory = cluster.directory
        self.spans = cluster.spans
        self.max_pending = max_pending
        self.retry = retry if retry is not None else RetryPolicy(
            deadline=300_000, attempt_timeout=30_000,
            backoff_base=200, backoff_cap=2_000,
        )
        self.max_backlog = max_backlog
        self.queue_deadline = queue_deadline

        self.mux = ReliableMux(
            self.engine, cluster.fabric.transmit, FRONTEND_MAC,
            self._on_payload, window=HOST_WINDOW, timeout=HOST_TIMEOUT,
            name=f"fe.{FRONTEND_MAC}")
        self._irid = itertools.count(1)
        #: one record per attempt in flight: internal request id ->
        #: (backend, request, kind, forward span); kind is "req" (a
        #: client's request waits), "repl" (fire-and-forget write
        #: replication — nobody waits, no request, but losses must be
        #: *counted*) or "ping" (an instance marked down; no request).
        #: Only :meth:`_resolve` takes entries out.
        self._awaiting: Dict[int, Tuple] = {}
        self._bid = itertools.count(1)
        #: one record per backend — the only per-instance table; a retired
        #: instance keeps its row (and is therefore never tracked again)
        self.health: Dict[str, BackendHealth] = {}
        #: one record per board MAC an instance was ever tracked on
        self.boards: Dict[str, BoardBeat] = {}

        #: the open-loop submit queue: (submitted_at, srid, req, on_done)
        self._backlog: Deque[Tuple] = deque()
        self._srid = itertools.count(1)
        self._draining = False  # a _drain_backlog call is already due

        self.inflight = 0
        self.requests_admitted = 0
        self.requests_rejected = 0
        self.requests_failed = 0
        self.requests_dropped = 0
        self.batches_sent = 0
        self.failovers = 0
        self.chain_nacks = 0
        #: operator-facing counters (``frontend.writes_unreplicated`` is
        #: the satellite-1 divergence signal for the legacy fan-out path)
        self.stats = StatsRegistry()

        cluster.fabric.attach(FRONTEND_MAC, self.mux.deliver_frame)
        cluster.register_fault_listener(self)
        self.track_all()
        # rounds on the interval grid, whatever cycle setup ended on
        self.engine.schedule(PROBE_INTERVAL - self.engine.now % PROBE_INTERVAL,
                             self._prober)

    # -- instance tracking -------------------------------------------------

    def track_all(self) -> None:
        """Start health tracking for every deployed instance.

        Called at construction and by the cluster after each deploy;
        idempotent per instance.
        """
        for spec in self.directory.services.values():
            for inst in spec.instances:
                iid = inst.iid
                if iid in self.health:
                    continue
                mac = self.cluster.mac(inst.fpga)
                board = self.boards.get(mac)
                if board is None:
                    board = self.boards[mac] = BoardBeat(
                        mac, self.mux.peer(mac))
                backend = self.health[iid] = BackendHealth(inst, board)
                board.backends.append(backend)

    def retire(self, iid: str) -> None:
        """Stop tracking an instance removed by a scale-down.

        The directory already stopped routing to it; this ends its
        flusher and its pings, and fails anything still awaiting it so the
        retry policy re-routes to surviving replicas.  Permanent: replica
        ids are never reused, so a retired iid never comes back.
        """
        backend = self.health.get(iid)
        if backend is None or backend.retired:
            return
        backend.retired = True
        self._fail_instance(backend, "retired by scale-down")

    def on_board_fault(self, fpga: int, node: int, action: str,
                       endpoint: str) -> None:
        """Board fault stream, delivered through the cluster backend —
        synchronously on the shared engine, at the window barrier on
        windowed backends (at most one window late, never early)."""
        if action != "drained":
            return  # a killed context leaves the instance serving
        for inst in self.directory.instances_on(fpga, node=node):
            backend = self.health.get(inst.iid)
            if backend is not None:
                self._fail_instance(backend, f"{endpoint} drained")

    def _fail_instance(self, backend: BackendHealth, why: str) -> None:
        """Kernel said this instance is gone: fail its pending work now —
        what is still queued first, then what is on the wire."""
        # a kernel-reported fault skips the probation period
        backend.misses = max(backend.misses, DEAD_AFTER)
        dead = [irid for irid, _body, _nb in backend.queue]
        del backend.queue[:]
        dead += [irid for irid, entry in self._awaiting.items()
                 if entry[0] is backend]
        for irid in dead:
            self._resolve(irid, error=f"down: {why}")

    # -- fabric plumbing ---------------------------------------------------

    def _on_payload(self, peer_mac: str, payload: Dict[str, Any]) -> None:
        """Backend responses in, from the boards the front-end sends to;
        whatever another fabric host sends is dropped unread (a request
        enters only by :meth:`submit`)."""
        data = payload.get("data")
        if peer_mac not in self.boards \
                or not (isinstance(data, tuple) and len(data) == 3):
            return
        tag, rid, body = data
        if tag == "resp":
            self._resolve(rid, body)
        elif tag == "batchresp":
            for irid, out_body, _nbytes in body:
                self._resolve(irid, out_body)

    def _resolve(self, irid: int, body: Any = None,
                 error: Optional[str] = None, missed: bool = False) -> None:
        """The one way out of ``_awaiting``, and the only place an
        instance's ``outstanding`` (client attempts) goes down.

        Called with a ``body`` when the instance answered, with ``error``
        when it did not: its time box ran out (``missed`` — that charges
        a health miss) or the kernel / a retire took the instance away.
        Whichever comes first wins; every later call finds no entry (a
        late response to an abandoned attempt, a time box that outlived
        its answer) and does nothing.  A client attempt's request takes
        its outcome in this call: it is answered, backs off or ends.
        """
        entry = self._awaiting.pop(irid, None)
        if entry is None:
            return
        backend, request, kind, span = entry
        if kind == "req":
            backend.outstanding -= 1
        if error is None:
            backend.misses = 0  # any response, data or pong, proves it alive
            backend.served += 1
            if isinstance(body, dict) and "_chain_nack" in body:
                # the member answered but refused (not head/tail, fenced,
                # unconfigured): the node is *healthy*, the routing stale —
                # fail the attempt so the retry re-resolves the chain
                self.chain_nacks += 1
                self.stats.counter("frontend.chain_nacks").inc()
                error = f"refused: {body['_chain_nack']}"
        elif kind == "repl":
            # nobody waits on a fire-and-forget replica write, but a silent
            # drop — the replica died, or never acked within a full attempt
            # timeout — is exactly how replicas diverge: count it where
            # operators see it.  No miss (the primary path owns health).
            self.stats.counter("frontend.writes_unreplicated").inc()
        elif missed:
            backend.misses += 1
        if span:
            detail = ({"timed_out": True} if missed
                      else {"failed": error is not None})
            self.spans.close(span, self.engine.now, **detail)
        if request is None:
            return
        if error is None:
            request.settle(body)
        else:
            request.settle(None, ServiceUnavailable(
                f"{backend.inst.iid} {error}"))

    def _expire(self, attempt: Tuple[int, int]) -> None:
        """An attempt's time box ran out (a no-op if it was resolved)."""
        irid, timeout = attempt
        if irid in self._awaiting:
            self._resolve(irid, error=f"did not answer in {timeout}",
                          missed=True)

    # -- open-loop submission ---------------------------------------------

    def submit(self, service: str, body: Any = None, key: Any = None,
               write: bool = False, tenant: Optional[str] = None,
               nbytes: int = 64,
               on_done: Optional[Callable[[Dict[str, Any]], None]] = None,
               ) -> bool:
        """Fire-and-record entry point for open-loop traffic generators.

        Never blocks and never back-pressures the caller: the request
        lands in a bounded backlog that is drained as in-flight slots
        free up.  Three distinct outcomes:

        * **served** — dispatched within ``queue_deadline``; ``on_done``
          gets the reply body, ``{"ok": True, "body": ...}`` or
          ``{"ok": False, "error": ...}`` (retries and failover included);
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
        self._wake_backlog()
        return True

    def backlog_depth(self, service: Optional[str] = None) -> int:
        """Queued-but-not-admitted submissions (optionally per service) —
        the open-loop pressure signal the autoscaler folds into its queue
        depth."""
        if service is None:
            return len(self._backlog)
        return sum(1 for _at, _srid, req, _cb in self._backlog
                   if req["service"] == service)

    def _wake_backlog(self) -> None:
        """Admission is one deferred call, a ring hop after the submit (or
        the freed slot) that asked for it — never inside ``submit``: a
        same-cycle burst must meet the backlog bound, not the in-flight one
        (admitted inline, ``tests/test_loadgen.py``'s
        ``test_backlog_overflow_drops`` drops 4 of 10, not 6)."""
        if self._backlog and not self._draining:
            self._draining = True
            self.engine.schedule(0, self._drain_backlog)

    def _drain_backlog(self, _arg: Any = None) -> None:
        """Admit from the backlog while in-flight slots are free; each
        admitted request starts one ring hop later, in :meth:`_serve`.

        No report depends on that hop: it keeps
        ``FrontEnd._serve`` an engine entry, which the benchmark's tracer
        books as ``cluster.frontend_serve`` (one per request), and
        ``test_requests_and_probes_book_to_serve_and_prober`` fails
        without it."""
        while self._backlog and self.inflight < self.max_pending:
            submitted_at, srid, req, on_done = self._backlog.popleft()
            origin = (srid, on_done)
            if self.engine.now - submitted_at > self.queue_deadline:
                # sustained overload: the slot freed up too late —
                # this is an admission reject, not a silent drop
                self.stats.counter("frontend.queue_deadline_rejects").inc()
                self._reject(origin, req)
                continue
            self.inflight += 1
            self.requests_admitted += 1
            # latency counts from submission, so time spent queued in the
            # backlog counts against the SLO — open-loop honesty: the
            # client "sent" the request at its arrival time
            self.engine.schedule(0, self._serve, (origin, req, submitted_at))
        self._draining = False

    # -- serving -------------------------------------------------------------

    def _reject(self, origin: Tuple, req: Dict[str, Any]) -> None:
        self.requests_rejected += 1
        self._observe_slo(req["service"], None, False, req.get("tenant"))
        self._answer(origin, {"ok": False, "rejected": True})

    @staticmethod
    def _answer(origin: Tuple, body: Dict[str, Any]) -> None:
        """A request's ``origin`` is its submission id and the
        ``on_done`` its answer goes to, if any."""
        on_done = origin[1]
        if on_done is not None:
            on_done(body)

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

    def _finish(self, origin: Tuple, req: Dict[str, Any],
                body: Dict[str, Any], latency: Optional[int] = None,
                root: int = 0) -> None:
        """The one exit of an admitted request: free its slot, score it,
        let the backlog at the slot, answer."""
        ok = body["ok"]
        self.inflight -= 1
        if not ok:
            self.requests_failed += 1
        self._observe_slo(req["service"], latency, ok, req.get("tenant"))
        if root:
            self.spans.close(root, self.engine.now, failed=not ok)
        self._wake_backlog()
        self._answer(origin, body)

    def _serve(self, admitted: Tuple) -> None:
        """One admitted request, a ring hop after its admission: resolve
        its service, open its span and start its retry loop."""
        origin, req, start = admitted
        service = req["service"]
        key = req.get("key")
        try:
            spec = self.directory.spec(service)
            if spec.chained and key is None:
                raise ConfigError(
                    f"chained service {service!r} requires a key")
        except ConfigError as err:
            self._finish(origin, req, {"ok": False, "error": str(err)})
            return
        _Request(self, origin, req, start, spec, key).begin()

    def _pick(self, spec: ServiceSpec, candidates: List[ServiceInstance],
              rotation: int) -> ServiceInstance:
        """Choose the attempt's target; raises when nothing is healthy.

        Sharded requests walk the replica list in order (primary first),
        advancing one slot per retry.  Stateless requests go to the
        least-loaded healthy instance.  The raise is retryable — an
        instance may come back (recovery restart) before the deadline.
        """
        health, healthy = self.health, []
        for inst in candidates:
            backend = health[inst.iid]
            if backend.misses < DEAD_AFTER \
                    and backend.board.misses < DEAD_AFTER:
                healthy.append(inst)
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

    def _dispatch(self, request: _Request, inst: ServiceInstance,
                  attempt_timeout: int) -> None:
        """Queue one attempt of ``request`` on ``inst``; the request hears
        the body, or the failure when the attempt is refused, times out or
        loses its instance (the ``forward:`` span closes with it)."""
        spec, req, trace_id = request.spec, request.req, request.trace_id
        fwd = 0
        if trace_id:
            fwd = self.spans.open(trace_id, f"forward:{inst.iid}",
                                  "cluster", FRONTEND_MAC, self.engine.now,
                                  parent_id=request.root, fpga=inst.fpga,
                                  node=inst.node)
        nbytes = int(req.get("nbytes", 64))
        self._enqueue(self.health[inst.iid], "req",
                      self._wire_body(req, trace_id, fwd, wid=request.wid),
                      nbytes, attempt_timeout, span=fwd, request=request)
        if req.get("write") and spec.sharded and not spec.chained:
            # legacy best-effort replication (the client's ack is the
            # addressed replica's alone; chained services replicate
            # through the chain instead and never take this path)
            for other in spec.candidates(req.get("key")):
                peer = self.health[other.iid]
                if other.iid != inst.iid and peer.healthy:
                    # time-boxed too: no bookkeeping lingers if it dies
                    self._enqueue(peer, "repl",
                                  self._wire_body(req, trace_id, fwd),
                                  nbytes, self.retry.attempt_timeout)

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

    def _enqueue(self, backend: BackendHealth, kind: str, body: Any,
                 nbytes: int, timeout: int, span: int = 0,
                 request: Optional[_Request] = None) -> None:
        """One attempt: its record, its place in the instance's batch queue
        and its time box — one heap entry, no event of its own."""
        irid = next(self._irid)
        if request is not None:
            backend.outstanding += 1
        self._awaiting[irid] = (backend, request, kind, span)
        backend.queue.append((irid, body, nbytes))
        self._kick(backend)
        self.engine.schedule(timeout, self._expire, (irid, timeout))

    # -- per-instance batching, liveness -----------------------------------
    #
    # An instance's flusher is callbacks over its record: ``_flush`` is the
    # top of its loop, ``kick`` says it is parked on an empty queue and
    # ``pace`` that it waits for a batch's ACK.  The accumulation window's
    # bucket entry sends the batch, and whichever of the ACK and the time
    # box wins the race goes on: the time box in its own call, the ACK one
    # ring hop after the transport hears it; besides that, only the wake is
    # a hop (tests/test_frontend_path.py section g pins them all).

    def _kick(self, backend: BackendHealth) -> None:
        """Wake a parked flusher, one ring hop from now, so that a burst
        queued in one cycle fills one batch: woken inline, the flusher
        would see the burst's first attempt alone and wait out the window
        (``test_hops_of_a_batch_of_four_attempts``' answers move from
        6 045 to 6 245)."""
        if backend.kick:
            backend.kick = False
            self.engine.schedule(0, self._fill, backend)

    def _flush(self, backend: BackendHealth) -> None:
        """Drain one instance's queue as batch envelopes: exit once it is
        retired, park while the queue is empty, else fill a batch."""
        if backend.retired:
            return
        if backend.queue:
            self._fill(backend)
        else:
            backend.kick = True

    def _fill(self, backend: BackendHealth) -> None:
        """There is work: a full batch leaves now, a short one waits."""
        if len(backend.queue) < BATCH_SIZE:
            # brief accumulation window
            self.engine.schedule(BATCH_WINDOW, self._send_batch, backend)
        else:
            self._send_batch(backend)

    def _send_batch(self, backend: BackendHealth) -> None:
        queue = backend.queue
        awaiting = self._awaiting
        entries, nbytes = [], 0
        for irid, body, nb in queue[:BATCH_SIZE]:
            # entries may have been failed over while we accumulated
            if irid in awaiting:
                entries.append((irid, body))
                nbytes += nb + 16
        del queue[:BATCH_SIZE]
        if not entries:
            self._flush(backend)
            return
        bid = next(self._bid)
        inst = backend.inst
        backend.board.conn.send(
            {"port": inst.port, "data": ("batch", bid, entries),
             "src_mac": FRONTEND_MAC},
            payload_bytes=max(64, nbytes),
            on_acked=partial(self._batch_acked, backend, bid),
        )
        self.batches_sent += 1
        # pace on the transport ack, but never wedge on a dead peer
        backend.pace = bid
        self.engine.schedule(self.mux.timeout, self._pace_over,
                             (backend, bid))

    def _batch_acked(self, backend: BackendHealth, bid: int) -> None:
        """The transport heard the batch's ACK: unless its time box already
        ran out, the flusher goes on one ring hop from now."""
        if backend.pace == bid:
            self.engine.schedule(0, self._pace_over, (backend, bid))

    def _pace_over(self, race: Tuple[BackendHealth, int]) -> None:
        """The batch's ACK or its time box, whichever comes first: the
        flusher goes on (the loser finds the race decided)."""
        backend, bid = race
        if backend.pace == bid:
            backend.pace = None
            self._flush(backend)

    def _prober(self, _arg: Any = None) -> None:
        """One liveness round, a heap entry every ``PROBE_INTERVAL``.

        A board's beat from the last round still unanswered is a miss.
        Each board gets a new beat, and each instance on it marked down a
        ping (the one before it, if unanswered, is given up).  While two
        beats to a board are unacked its transport is wedged (a detached
        MAC): the round sends nothing there, and the beat it could not
        send is missed all the same.
        """
        for board in self.boards.values():
            if board.beat:
                board.misses += 1
            board.beat = next(self._irid)
            if board.unacked >= 2:
                continue
            board.unacked += 1
            board.conn.send(
                {"port": HEARTBEAT_PORT, "data": ("req", board.beat, None),
                 "src_mac": FRONTEND_MAC},
                payload_bytes=16,
                on_acked=partial(self.engine.schedule, 0, board.acked,
                                 board.beat))
            for backend in board.backends:
                if backend.misses >= DEAD_AFTER and not backend.retired:
                    self._resolve(backend.ping, error="missed a ping")
                    irid = backend.ping = next(self._irid)
                    self._awaiting[irid] = (backend, None, "ping", 0)
                    backend.probes_sent += 1
                    board.conn.send(
                        {"port": backend.inst.port,
                         "data": ("req", irid, {"op": "ping"}),
                         "src_mac": FRONTEND_MAC},
                        payload_bytes=16,
                    )
        self.engine.schedule(PROBE_INTERVAL, self._prober)

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
        """Live health snapshot, keyed by instance id:

        * ``healthy`` — routable: fewer than ``DEAD_AFTER`` misses of its
          own, and fewer than that of its board's heartbeat;
        * ``misses`` — its attempts in a row whose time box ran out
          (``DEAD_AFTER`` at once when the kernel reports its tile
          drained); any answer resets it;
        * ``outstanding`` — client attempts dispatched to it and not yet
          resolved (replica copies and pings are not counted), the queue
          depth the autoscaler sums;
        * ``served`` — answers it returned: client attempts, replica copies
          and pings alike;
        * ``probes_sent`` — pings sent to it while it was marked down.
        """
        fields = ("healthy", "misses", "outstanding", "served", "probes_sent")
        return {iid: {field: getattr(backend, field) for field in fields}
                for iid, backend in self.health.items()}


class _Request(RetryLoop):
    """One admitted request: where its answer goes, its routing and its
    spans, and the retry loop it runs (a failed attempt rotates to the
    next replica or instance)."""

    __slots__ = ("fe", "origin", "req", "start", "spec", "key", "is_write",
                 "candidates", "trace_id", "root", "wid", "rotation")

    def __init__(self, fe: FrontEnd, origin: Tuple, req: Dict[str, Any],
                 start: int, spec: ServiceSpec, key: Any) -> None:
        service = req["service"]
        super().__init__(fe.retry, fe.engine, (ServiceUnavailable,),
                         f"route {service!r}")
        self.fe = fe
        self.origin = origin
        self.req = req
        self.start = start
        self.spec = spec
        self.key = key
        self.is_write = bool(req.get("write"))
        self.candidates = spec.candidates(key)
        self.trace_id = self.root = 0
        spans = fe.spans
        if spans.enabled:
            self.trace_id = spans.new_trace()
            self.root = spans.open(self.trace_id, f"frontend:{service}",
                                   "cluster", FRONTEND_MAC, fe.engine.now,
                                   service=service, key=key)
        # a stable write id across this request's *frontend* attempts:
        # the chain head dedups retried writes it already logged
        self.wid = (f"submit#{origin[0]}"
                    if (spec.chained and self.is_write) else None)
        self.rotation = 0

    def _issue(self, attempt_timeout: int) -> None:
        fe, spec = self.fe, self.spec
        if spec.chained:
            inst = fe._pick_chain(spec, self.key, self.is_write)
        else:
            rotation = self.rotation
            self.rotation += 1
            inst = fe._pick(spec, self.candidates, rotation)
        fe._dispatch(self, inst, attempt_timeout)

    def _retried(self) -> None:
        self.fe.failovers += 1

    def _finish(self, value: Any, error: Optional[BaseException]) -> None:
        body = ({"ok": True, "body": value} if error is None
                else {"ok": False, "error": str(error)})
        fe = self.fe
        fe._finish(self.origin, self.req, body,
                   latency=fe.engine.now - self.start, root=self.root)
