"""Replicated state machines: what a chain node actually executes.

Chain replication is agnostic to the service it replicates; the contract
a chain node relies on is the classic deterministic-state-machine one:

* ``is_write(body)`` says whether a request mutates state (and so goes
  through the log); ``write_cycles`` / ``read_cycles`` are the compute
  cycles one replica charges for it;
* ``apply(body)`` applies one committed write and ``read(body)`` serves
  one read from committed state, each returning ``(reply_body,
  reply_bytes)``; ``apply`` must be **deterministic** — every replica
  applies the same log prefix and must land in the same state, which is
  what makes the head's locally-computed reply valid for a write the
  tail committed;
* ``snapshot()`` / ``restore(snap)`` bound catch-up time — a spliced-in
  replica installs a checkpoint and replays only the log tail above it;
  ``snapshot_bytes()`` is the checkpoint's wire size.

:class:`KvMachine` is the one implementation: the versioned KV store the
R2 consistency bench drives.  Values carry the writer's monotonic version
so the linearizability checker can order what reads observed without
inspecting server internals.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

__all__ = ["KvMachine"]


class KvMachine:
    """A versioned key-value store (put / get / delete / scan).

    ``version`` bumps on every applied mutation, so snapshots are
    ordered and replies tell the caller exactly which state version
    served them — the raw material of the consistency checker.
    """

    WRITE_OPS = ("put", "delete")

    def __init__(self, shard: int, work_cycles: int = 500):
        self.shard = shard
        self.work_cycles = work_cycles
        self.store: Dict[Any, Any] = {}
        self.version = 0
        self.applies = 0
        self.reads = 0

    def is_write(self, body: Dict[str, Any]) -> bool:
        return body.get("op") in self.WRITE_OPS

    def write_cycles(self, body: Dict[str, Any]) -> int:
        return self.work_cycles

    def read_cycles(self, body: Dict[str, Any]) -> int:
        return self.work_cycles

    def apply(self, body: Dict[str, Any]) -> Tuple[Any, int]:
        op = body.get("op")
        self.applies += 1
        if op == "put":
            self.store[body["key"]] = body.get("value")
            self.version += 1
            return {"ok": True, "shard": self.shard,
                    "version": self.version}, 32
        if op == "delete":
            existed = self.store.pop(body.get("key"), None) is not None
            self.version += 1
            return {"ok": True, "deleted": existed,
                    "shard": self.shard, "version": self.version}, 16
        return {"ok": False, "error": f"bad write op {op!r}"}, 16

    def read(self, body: Dict[str, Any]) -> Tuple[Any, int]:
        op = body.get("op")
        self.reads += 1
        if op == "get":
            key = body.get("key")
            found = key in self.store
            return {"ok": True, "found": found,
                    "value": self.store.get(key),
                    "shard": self.shard, "version": self.version}, 64
        if op == "scan":
            keys = sorted(map(str, self.store.keys()))
            return {"ok": True, "keys": keys,
                    "shard": self.shard, "version": self.version}, \
                max(16, 16 * len(keys))
        return {"ok": False, "error": f"bad read op {op!r}"}, 16

    def snapshot(self) -> Dict[str, Any]:
        return {"shard": self.shard, "version": self.version,
                "store": dict(self.store)}

    def snapshot_bytes(self) -> int:
        return 64 + 48 * len(self.store)

    def restore(self, snap: Dict[str, Any]) -> None:
        self.store = dict(snap.get("store", {}))
        self.version = int(snap.get("version", 0))
