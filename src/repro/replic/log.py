"""Per-shard write-ahead log backing chain replication.

Every replicated write becomes a :class:`LogEntry` appended at the chain
head and propagated, in index order, down the chain.  The log is the
mechanism behind all three replication guarantees:

* **durability** — an entry is acknowledged only after the *tail* holds
  it, and entries only ever flow head → tail, so an acknowledged entry
  exists on every chain member; any single survivor can serve it;
* **catch-up** — a spliced-in replica restores a checkpoint at index
  ``N`` and then replays ``entries_from(N + 1)`` streamed by its new
  predecessor, without stopping the chain;
* **checkpoint truncation** — once state is checkpointed (the state
  machine *is* the checkpoint in this model), entries at or below the
  checkpoint index are dropped; :meth:`entries_from` reports the gap so
  the repair path falls back to a full snapshot transfer instead of
  silently streaming an incomplete history.

Indices are 1-based and dense: ``base_index`` is the highest truncated
index (0 for a fresh log), entries cover ``base_index + 1 .. last_index``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigError

__all__ = ["LogEntry", "WriteAheadLog"]


@dataclass
class LogEntry:
    """One replicated write."""

    index: int
    #: epoch under which the entry was *created* (entries survive epoch
    #: bumps; the chain message carrying them is what gets fenced)
    epoch: int
    #: frontend-stamped write id ``"client#rid"`` for at-most-once replay
    #: suppression at the head (None for internal/no-op entries)
    wid: Optional[str]
    #: canonical state-machine input (wire/trace metadata stripped)
    body: Dict[str, Any]

    def to_wire(self) -> Tuple[int, int, Optional[str], Dict[str, Any]]:
        return (self.index, self.epoch, self.wid, self.body)

    @classmethod
    def from_wire(cls, wire: Tuple) -> "LogEntry":
        index, epoch, wid, body = wire
        return cls(index=index, epoch=epoch, wid=wid, body=body)


class WriteAheadLog:
    """Dense, truncatable, 1-indexed entry log."""

    def __init__(self):
        self.base_index = 0
        self._entries: List[LogEntry] = []
        self.appended_total = 0
        self.truncated_total = 0

    @property
    def last_index(self) -> int:
        return self.base_index + len(self._entries)

    def append(self, epoch: int, wid: Optional[str],
               body: Dict[str, Any]) -> LogEntry:
        """Append a fresh entry at ``last_index + 1`` (head-side append)."""
        entry = LogEntry(index=self.last_index + 1, epoch=epoch,
                         wid=wid, body=body)
        self._entries.append(entry)
        self.appended_total += 1
        return entry

    def append_entry(self, entry: LogEntry) -> None:
        """Append a replicated entry; must be exactly the next index."""
        if entry.index != self.last_index + 1:
            raise ConfigError(
                f"log append out of order: got {entry.index}, "
                f"expected {self.last_index + 1}"
            )
        self._entries.append(entry)
        self.appended_total += 1

    def get(self, index: int) -> LogEntry:
        if not self.base_index < index <= self.last_index:
            raise ConfigError(
                f"index {index} outside retained range "
                f"({self.base_index}, {self.last_index}]"
            )
        return self._entries[index - self.base_index - 1]

    def entries_from(self, index: int) -> Optional[List[LogEntry]]:
        """Entries with ``entry.index >= index``.

        Returns ``None`` when ``index`` falls below the truncation point
        while entries that old would be needed — the caller must fall back
        to a checkpoint transfer.  An ``index`` beyond the log is simply an
        empty list (nothing to stream).
        """
        if index > self.last_index:
            return []
        if index <= self.base_index:
            return None
        return self._entries[index - self.base_index - 1:]

    def truncate_to(self, index: int) -> int:
        """Drop entries at or below ``index`` (post-checkpoint).  Returns
        how many entries were dropped."""
        if index <= self.base_index:
            return 0
        index = min(index, self.last_index)
        dropped = index - self.base_index
        del self._entries[:dropped]
        self.base_index = index
        self.truncated_total += dropped
        return dropped

    def reset(self, base_index: int) -> None:
        """Forget everything and restart above ``base_index`` (snapshot
        install on a spliced-in replica)."""
        self._entries.clear()
        self.base_index = base_index
