"""Key-value store accelerator — the second tenant of Section 2.

"Another user might want to use the FPGA to host an independent key-value
store application" (after Caribou [23] and its multi-tenant extension
[24]).  The model serves GET/PUT/DELETE with hash + value-transfer costs
and supports multiple client contexts so the multi-tenancy tests have
something real to isolate.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.accel.base import Accelerator
from repro.hw.resources import ResourceVector

__all__ = ["KvStore", "KV_HASH_CYCLES", "KV_CYCLES_PER_64B"]

#: Hash + bucket walk per operation.
KV_HASH_CYCLES = 12
#: Value movement cost per 64B line.
KV_CYCLES_PER_64B = 2
#: acknowledged writes remembered per client for duplicate suppression
DEDUP_WINDOW = 64


class KvStore(Accelerator):
    """A hash-table KV store.

    Ops: ``get {key}``, ``put {key, bytes}``, ``delete {key}``,
    ``stats {}``.  Replies carry ``payload_bytes`` equal to the value size
    for GETs, so network/NoC serialization is modelled faithfully.

    Writes are **at-most-once** when the client cooperates: a put/delete
    body carrying ``client``/``seq`` (the caller's logical-request
    identity — a ``rid`` names one transmission, these name the write)
    is remembered in a per-client window of the last ``DEDUP_WINDOW``, and a
    retransmission of the same logical write — the classic
    retried-after-timeout duplicate — replays the original reply instead
    of applying the write a second time.
    """

    COST = ResourceVector(logic_cells=80_000, bram_kb=2048, dsp_slices=0)
    PRIMITIVES = {"lut_logic": 64_000, "bram": 512, "fifo": 8}

    def __init__(self, name: str):
        super().__init__(name)
        self._table: Dict[Any, Dict[str, Any]] = {}
        #: client -> {seq: reply payload} for recent acknowledged writes
        self._dedup: Dict[str, Dict[int, Dict[str, Any]]] = {}
        self.gets = 0
        self.puts = 0
        self.deletes = 0
        self.misses = 0
        self.dupes_suppressed = 0

    def main(self, shell):
        while True:
            msg = yield shell.recv()
            yield from self._serve(shell, msg)

    def _serve(self, shell, msg):
        body = msg.payload if isinstance(msg.payload, dict) else {}
        op = msg.op
        if op == "kv.get":
            yield from self._get(shell, msg, body)
        elif op == "kv.put":
            yield from self._put(shell, msg, body)
        elif op == "kv.delete":
            yield from self._delete(shell, msg, body)
        elif op == "kv.stats":
            yield shell.reply(msg, payload={
                "keys": len(self._table), "gets": self.gets,
                "puts": self.puts, "misses": self.misses,
                "dupes_suppressed": self.dupes_suppressed,
            }, payload_bytes=32)
        else:
            yield shell.reply(msg, payload=f"unknown op {op!r}", error=True)

    def _get(self, shell, msg, body):
        self.gets += 1
        yield from self._work(KV_HASH_CYCLES)
        entry = self._table.get(body.get("key"))
        if entry is None:
            self.misses += 1
            yield shell.reply(msg, payload={"found": False}, payload_bytes=8)
            return
        nbytes = entry["bytes"]
        yield from self._work(KV_CYCLES_PER_64B * (nbytes // 64 + 1))
        yield shell.reply(msg, payload={"found": True, "bytes": nbytes,
                                        "value": entry.get("value")},
                          payload_bytes=nbytes)

    def _dedup_hit(self, body) -> Optional[Dict[str, Any]]:
        client, seq = body.get("client"), int(body.get("seq") or 0)
        if not client or not seq:
            return None
        return self._dedup.get(client, {}).get(seq)

    def _dedup_store(self, body, payload: Dict[str, Any]) -> None:
        client, seq = body.get("client"), int(body.get("seq") or 0)
        if not client or not seq:
            return
        window = self._dedup.setdefault(client, {})
        window[seq] = dict(payload)
        if len(window) > DEDUP_WINDOW:
            for old in sorted(window)[:len(window) - DEDUP_WINDOW]:
                del window[old]

    def _put(self, shell, msg, body):
        cached = self._dedup_hit(body)
        if cached is not None:
            self.dupes_suppressed += 1
            yield shell.reply(msg, payload=dict(cached), payload_bytes=8)
            return
        self.puts += 1
        yield from self._work(KV_HASH_CYCLES)
        nbytes = int(body.get("bytes", 64))
        yield from self._work(KV_CYCLES_PER_64B * (nbytes // 64 + 1))
        self._table[body.get("key")] = {"bytes": nbytes,
                                         "value": body.get("value")}
        payload = {"stored": True}
        self._dedup_store(body, payload)
        yield shell.reply(msg, payload=payload, payload_bytes=8)

    def _delete(self, shell, msg, body):
        cached = self._dedup_hit(body)
        if cached is not None:
            self.dupes_suppressed += 1
            yield shell.reply(msg, payload=dict(cached), payload_bytes=8)
            return
        self.deletes += 1
        yield from self._work(KV_HASH_CYCLES)
        existed = self._table.pop(body.get("key"), None) is not None
        payload = {"deleted": existed}
        self._dedup_store(body, payload)
        yield shell.reply(msg, payload=payload, payload_bytes=8)
