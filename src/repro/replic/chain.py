"""ChainNodeService: one chain-replication member on one tile.

The data plane of the replication subsystem.  Each replicated shard is a
*chain* of these services across distinct FPGAs; the protocol follows
van Renesse & Schneider's chain replication, carried over the same
NoC + Ethernet path every other cluster byte takes:

* **writes** enter at the *head* (the front-end routes them there),
  append to the write-ahead log, and propagate down the chain as
  ``chain.fwd`` events; the *tail* commits on receipt (everything that
  reaches it already exists upstream) and a cumulative ``chain.ack``
  flows back up.  The head replies to the client only when its own
  commit index covers the entry — i.e. **only after the tail committed**,
  which is what makes an acknowledged write unlosable while any single
  member survives;
* **reads** are served at the *tail* from committed state — linearizable
  because the tail's state is exactly the committed prefix;
* **epochs fence stale members**: every chain message carries the
  configuration epoch.  A member that was partitioned away keeps its old
  epoch; when it tries to forward a write, its (re-configured) successor
  answers ``chain.nack`` with the higher epoch and the stale member
  fences itself — pending writes fail loudly instead of splitting the
  brain;
* **catch-up without stopping the chain**: a member configured with a
  lagging successor streams the missing log suffix (``succ_index`` from
  the repair RPC) before normal forwarding resumes; a brand-new replica
  first installs a checkpoint (``chain.restore``) and only replays the
  tail above it.

Roles: ``head`` / ``mid`` / ``tail`` / ``solo`` (a degraded one-member
chain: commits locally).  A node with ``epoch == 0`` is unconfigured and
rejects everything retryably — the front-end keeps retrying until the
:class:`~repro.replic.manager.ReplicationManager` configures the chain.

Requests that cannot be served here answer ``{"_chain_nack": reason}``;
the front-end translates that into a retryable failure so the client
transparently lands on the post-repair head/tail.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.service import ClusterPortedService
from repro.replic.log import LogEntry, WriteAheadLog
from repro.replic.machine import StateMachine

__all__ = ["ChainNodeService", "LOG_APPEND_CYCLES", "STREAM_CHUNK"]

#: cycles to append one entry to the WAL (BRAM write + pointer bump)
LOG_APPEND_CYCLES = 8
#: entries per catch-up ``chain.fwd`` message
STREAM_CHUNK = 16
#: applied entries a checkpoint leaves in the log, for slow successors
KEEP_LOG = 256
#: entries a checkpoint must cut at least (no truncation per write)
CHECKPOINT_EVERY = 64
#: committed results kept to answer a front-end's retried write
RESULT_CACHE = 128
#: body keys that are transport/trace metadata, not state-machine input
_WIRE_KEYS = ("_wid", "_trace")


class ChainNodeService(ClusterPortedService):
    """A replicated-state-machine member behind one cluster port.

    It keeps a generator receive loop (:meth:`main`), because its write
    path yields through WAL appends and commits; only the port, the
    counters, ``COST`` and ``family_bitstream`` come from the base classes,
    whose callback serving path never runs for a chain node.
    """

    def __init__(self, name: str, port: int, machine: StateMachine):
        super().__init__(name, port, handler=None)
        self.machine = machine

        self.log = WriteAheadLog()
        self.epoch = 0
        self.role: Optional[str] = None
        self.self_addr: Optional[Tuple[str, int]] = None
        self.pred_addr: Optional[Tuple[str, int]] = None
        self.succ_addr: Optional[Tuple[str, int]] = None
        self.fenced = False
        self.commit_index = 0
        self.applied_index = 0

        #: log index -> [(client_mac, rid), ...] replies owed on commit
        self._pending: Dict[int, List[Tuple[str, int]]] = {}
        #: write id -> log index (at-most-once for front-end retries)
        self._wid_index: Dict[str, int] = {}
        #: log index -> (reply_body, reply_bytes) for deduped re-asks
        self._results: Dict[int, Tuple[Any, int]] = {}
        #: log index -> open replicate span id
        self._spans: Dict[int, int] = {}

        # counters (surfaced via chain.stat and the R2 report)
        self.writes_begun = 0
        self.writes_committed = 0
        self.reads_served = 0
        self.nacked = 0
        self.fenced_rejects = 0
        self.stale_drops = 0
        self.entries_forwarded = 0
        self.entries_received = 0
        self.acks_forwarded = 0
        self.snapshots_served = 0
        self.snapshots_installed = 0
        self.entries_streamed = 0
        self.checkpoints = 0
        self.gap_drops = 0

    # -- the receive loop ---------------------------------------------------

    def main(self, shell):
        yield shell.net_bind(self.port)
        while True:
            msg = yield shell.recv()
            data = msg.payload.get("data") if msg.op == "net.rx" else None
            if isinstance(data, tuple) and len(data) == 3:
                yield from self._serve_tagged(shell, msg.payload, *data)

    def _serve_tagged(self, shell, envelope, tag, rid, body):
        if tag == "req":
            yield from self._serve_one(shell, envelope, rid, body)
        elif tag == "batch":
            yield from self._serve_batch(shell, envelope, rid, body)
        elif tag == "evt":
            yield from self._chain_evt(shell, body)

    def _serve_one(self, shell, envelope, rid, body):
        out = yield from self._dispatch(shell, envelope, rid, body)
        if out is not None:
            out_body, out_bytes = out
            shell.net_post(envelope["src_mac"], self.port,
                           data=("resp", rid, out_body), nbytes=out_bytes)

    def _serve_batch(self, shell, envelope, bid, entries):
        """Batch envelopes may mix reads (answered in the batchresp) and
        writes (answered individually once the tail commits)."""
        self.batches_served += 1
        out = []
        total_bytes = 0
        for rid, body in entries:
            result = yield from self._dispatch(shell, envelope, rid, body)
            if result is not None:
                out_body, out_bytes = result
                out.append((rid, out_body, out_bytes))
                total_bytes += out_bytes
        if out:
            shell.net_post(envelope["src_mac"], self.port,
                           data=("batchresp", bid, out),
                           nbytes=max(64, total_bytes + 16 * len(out)))

    def _dispatch(self, shell, envelope, rid, body):
        """Serve one request body.  Returns ``(reply, bytes)`` for an
        immediate answer or ``None`` when the reply is deferred (writes:
        sent on commit) — a generator, so handlers charge sim time."""
        if isinstance(body, dict):
            op = body.get("op")
            if op == "ping":
                self.pings_answered += 1
                return {"pong": True, "service": self.name,
                        "epoch": self.epoch, "role": self.role}, 16
            if isinstance(op, str) and op.startswith("chain."):
                out = yield from self._chain_ctl(shell, body)
                return out
            if self.machine.is_write(body):
                yield from self._begin_write(
                    shell, envelope["src_mac"], rid, body)
                return None
            return (yield from self._serve_read(shell, body))
        return {"_chain_nack": "malformed request"}, 16

    # -- client writes -----------------------------------------------------

    def _begin_write(self, shell, src_mac: str, rid: int, body: Dict):
        if self.fenced:
            self.fenced_rejects += 1
            self._nack(shell, src_mac, rid, "fenced (stale epoch)")
            return
        if self.epoch == 0 or self.role not in ("head", "solo"):
            self.nacked += 1
            self._nack(shell, src_mac, rid,
                       f"not the chain head (role={self.role})")
            return
        wid = body.get("_wid")
        if wid is not None and wid in self._wid_index:
            # front-end retry of a write we already hold: never re-append
            index = self._wid_index[wid]
            if index <= self.commit_index:
                out = self._results.get(index, ({"ok": True, "dup": True}, 16))
                shell.net_post(src_mac, self.port, data=("resp", rid, out[0]),
                               nbytes=out[1])
            else:
                self._pending.setdefault(index, []).append((src_mac, rid))
            return
        yield from self._work(LOG_APPEND_CYCLES)
        clean = {k: v for k, v in body.items() if k not in _WIRE_KEYS}
        entry = self.log.append(epoch=self.epoch, wid=wid, body=clean)
        if wid is not None:
            self._wid_index[wid] = entry.index
        self._pending.setdefault(entry.index, []).append((src_mac, rid))
        self.writes_begun += 1
        spans = shell.spans
        trace = body.get("_trace") if spans.enabled else None
        if trace:
            self._spans[entry.index] = spans.open(
                trace[0], f"replicate:{self.name}", "replic", shell.name,
                shell.engine.now, parent_id=trace[1], index=entry.index,
                epoch=self.epoch)
        if self.role == "solo":
            yield from self._commit_up_to(shell, entry.index)
        else:
            self._forward(shell, [entry])

    def _nack(self, shell, src_mac: str, rid: int, reason: str) -> None:
        shell.net_post(src_mac, self.port,
                       data=("resp", rid, {"_chain_nack": reason}), nbytes=16)

    # -- client reads ------------------------------------------------------

    def _serve_read(self, shell, body: Dict):
        if self.fenced:
            self.fenced_rejects += 1
            return {"_chain_nack": "fenced (stale epoch)"}, 16
        if self.epoch == 0 or self.role not in ("tail", "solo"):
            self.nacked += 1
            return {"_chain_nack":
                    f"not the chain tail (role={self.role})"}, 16
        yield from self._work(self.machine.read_cycles(body))
        clean = {k: v for k, v in body.items() if k not in _WIRE_KEYS}
        self.reads_served += 1
        return self.machine.read(clean)

    # -- chain events (peer-to-peer, one-way) ------------------------------

    def _chain_evt(self, shell, body):
        if not isinstance(body, dict):
            return
        op = body.get("op")
        if op == "chain.fwd":
            yield from self._on_fwd(shell, body)
        elif op == "chain.ack":
            yield from self._on_ack(shell, body)
        elif op == "chain.nack":
            self._on_nack(shell, body)
        elif op == "chain.pull":
            self._on_pull(shell, body)

    def _on_fwd(self, shell, body):
        if body.get("epoch") != self.epoch or self.fenced or self.epoch == 0:
            self.stale_drops += 1
            sender = body.get("from")
            if sender and body.get("epoch", 0) < self.epoch:
                # tell the stale sender which epoch fenced it
                self._send_evt(shell, tuple(sender),
                               {"op": "chain.nack", "epoch": self.epoch,
                                "from": self.self_addr})
            return
        appended = []
        for wire in body.get("entries", ()):
            entry = LogEntry.from_wire(tuple(wire))
            if entry.index <= self.log.last_index:
                continue  # overlap from a catch-up re-stream
            if entry.index != self.log.last_index + 1:
                self.gap_drops += 1
                break
            yield from self._work(LOG_APPEND_CYCLES)
            self.log.append_entry(entry)
            if entry.wid is not None:
                self._wid_index[entry.wid] = entry.index
            self.entries_received += 1
            appended.append(entry)
        if not appended:
            return
        if self.role in ("tail", "solo"):
            yield from self._commit_up_to(shell, self.log.last_index)
            if self.pred_addr is not None:
                self._send_ack(shell, self.pred_addr)
        elif self.succ_addr is not None:
            self._forward(shell, appended)

    def _on_ack(self, shell, body):
        if body.get("epoch") != self.epoch or self.fenced:
            self.stale_drops += 1
            return
        index = int(body.get("index", 0))
        if index <= self.commit_index:
            return
        yield from self._commit_up_to(shell, index)
        if self.role == "mid" and self.pred_addr is not None:
            self._send_ack(shell, self.pred_addr)
            self.acks_forwarded += 1

    def _on_nack(self, shell, body) -> None:
        """A successor at a higher epoch refused us: we are fenced."""
        if int(body.get("epoch", 0)) <= self.epoch:
            return
        self.fenced = True
        # fail every write we owe a reply for, loudly — the client's
        # retry lands on the new head, which dedups by wid
        for index in sorted(self._pending):
            if index <= self.commit_index:
                continue
            for src_mac, rid in self._pending.pop(index):
                self.fenced_rejects += 1
                self._nack(shell, src_mac, rid,
                           f"fenced by epoch {body['epoch']}")
            span = self._spans.pop(index, None)
            if span:
                shell.spans.close(span, shell.engine.now, failed=True)

    def _on_pull(self, shell, body) -> None:
        """A (re)configured predecessor asks where commit stands."""
        if body.get("epoch") != self.epoch or self.fenced:
            self.stale_drops += 1
            return
        sender = body.get("from")
        if sender and self.commit_index > 0:
            self._send_ack(shell, tuple(sender))

    # -- commit / apply ----------------------------------------------------

    def _commit_up_to(self, shell, index: int):
        index = min(index, self.log.last_index)
        if index > self.commit_index:
            self.commit_index = index
        while self.applied_index < self.commit_index:
            i = self.applied_index + 1
            entry = self.log.get(i)
            yield from self._work(self.machine.write_cycles(entry.body))
            out = self.machine.apply(entry.body)
            self.applied_index = i
            self.writes_committed += 1
            self._results[i] = out
            if len(self._results) > RESULT_CACHE:
                del self._results[min(self._results)]
            for src_mac, rid in self._pending.pop(i, ()):
                shell.net_post(src_mac, self.port, data=("resp", rid, out[0]),
                               nbytes=out[1])
            span = self._spans.pop(i, None)
            if span:
                shell.spans.close(span, shell.engine.now,
                                  commit_index=self.commit_index)
        self._maybe_checkpoint()

    def _maybe_checkpoint(self) -> None:
        """Incremental checkpoint: state is the checkpoint; truncate the
        log below it, keeping a catch-up margin for slow successors."""
        cut = self.applied_index - KEEP_LOG
        if cut > self.log.base_index and \
                cut - self.log.base_index >= CHECKPOINT_EVERY:
            self.log.truncate_to(cut)
            self.checkpoints += 1
            floor = self.log.base_index
            for wid in [w for w, i in self._wid_index.items() if i <= floor]:
                del self._wid_index[wid]

    # -- control RPCs (from the replication manager) -----------------------

    def _chain_ctl(self, shell, body):
        op = body.get("op")
        if op == "chain.cfg":
            return (yield from self._ctl_cfg(shell, body))
        if op == "chain.stat":
            return self.stat(), 64
        if op == "chain.snap":
            self.snapshots_served += 1
            return {"ok": True, "state": self.machine.snapshot(),
                    "index": self.applied_index, "epoch": self.epoch}, \
                self.machine.snapshot_bytes()
        if op == "chain.restore":
            self.machine.restore(body["state"])
            index = int(body["index"])
            self.applied_index = index
            self.commit_index = index
            self.log.reset(index)
            self.snapshots_installed += 1
            return {"ok": True, "index": index}, 16
        if op == "chain.fence":
            self.fenced = True
            self._on_nack(shell, {"epoch": int(body.get("epoch", 1 << 30))})
            return {"ok": True, "fenced": True}, 16
        return {"ok": False, "error": f"unknown chain op {op!r}"}, 16

    def _ctl_cfg(self, shell, body):
        epoch = int(body["epoch"])
        if epoch < self.epoch:
            return {"ok": False, "error": "stale cfg",
                    "epoch": self.epoch}, 32
        self.epoch = epoch
        self.role = body["role"]
        self.self_addr = self._addr(body.get("self"))
        self.pred_addr = self._addr(body.get("pred"))
        self.succ_addr = self._addr(body.get("succ"))
        self.fenced = False
        succ_index = body.get("succ_index")
        if self.succ_addr is not None and succ_index is not None:
            missing = self.log.entries_from(int(succ_index) + 1)
            if missing is None:
                return {"ok": False, "error": "log truncated",
                        "base_index": self.log.base_index,
                        "last_index": self.log.last_index}, 32
            for i in range(0, len(missing), STREAM_CHUNK):
                chunk = missing[i:i + STREAM_CHUNK]
                self._forward(shell, chunk)
                self.entries_streamed += len(chunk)
            # ask the successor where commit stands so acks resume
            self._send_evt(shell, self.succ_addr,
                           {"op": "chain.pull", "epoch": self.epoch,
                            "from": self.self_addr})
        if self.role in ("tail", "solo"):
            yield from self._commit_up_to(shell, self.log.last_index)
            if self.role == "tail" and self.pred_addr is not None \
                    and self.commit_index > 0:
                self._send_ack(shell, self.pred_addr)
        return {"ok": True, "epoch": self.epoch, "role": self.role,
                "last_index": self.log.last_index,
                "commit_index": self.commit_index}, 48

    def stat(self) -> Dict[str, Any]:
        return {
            "ok": True, "epoch": self.epoch, "role": self.role,
            "fenced": self.fenced, "last_index": self.log.last_index,
            "commit_index": self.commit_index,
            "applied_index": self.applied_index,
            "writes_begun": self.writes_begun,
            "writes_committed": self.writes_committed,
            "reads_served": self.reads_served,
            "nacked": self.nacked,
            "fenced_rejects": self.fenced_rejects,
            "stale_drops": self.stale_drops,
            "entries_forwarded": self.entries_forwarded,
            "entries_received": self.entries_received,
            "entries_streamed": self.entries_streamed,
            "snapshots_served": self.snapshots_served,
            "snapshots_installed": self.snapshots_installed,
            "checkpoints": self.checkpoints,
            "gap_drops": self.gap_drops,
        }

    # -- wire helpers ------------------------------------------------------

    @staticmethod
    def _addr(value) -> Optional[Tuple[str, int]]:
        if value is None:
            return None
        mac, port = value
        return (mac, int(port))

    def _forward(self, shell, entries: List[LogEntry]) -> None:
        if self.succ_addr is None:
            return
        self.entries_forwarded += len(entries)
        self._send_evt(shell, self.succ_addr,
                       {"op": "chain.fwd", "epoch": self.epoch,
                        "from": self.self_addr,
                        "entries": [e.to_wire() for e in entries]},
                       nbytes=max(64, 48 * len(entries)))

    def _send_ack(self, shell, addr: Tuple[str, int]) -> None:
        self._send_evt(shell, addr,
                       {"op": "chain.ack", "epoch": self.epoch,
                        "index": self.commit_index, "from": self.self_addr})

    def _send_evt(self, shell, addr: Tuple[str, int], body: Dict,
                  nbytes: int = 64) -> None:
        shell.net_post(addr[0], addr[1], data=("evt", 0, body), nbytes=nbytes)
