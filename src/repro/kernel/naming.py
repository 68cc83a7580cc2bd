"""The logical namespace: one API over the name table everything shares.

Monitors resolve message destinations against a plain ``{name: node}``
dict on their hot path (one dict lookup per message — kept raw on
purpose).  Everything *else* used to poke that dict directly, scattered
across the management plane, recovery, chaos injection, and tests.  This
module gives those callers one small API — ``bind`` / ``lookup`` /
``unbind`` / ``rebind`` — over the same underlying dict, so the hot path
keeps its raw lookup while policy code gets validation and a vocabulary.

The cluster layer's :class:`~repro.cluster.directory.ServiceDirectory`
extends this class cluster-wide: same verbs, but names bind to
``(fpga, node)`` placements instead of local tile numbers.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigError, ServiceUnavailable

__all__ = ["Namespace"]


class Namespace:
    """Bind/lookup/unbind/rebind over a shared logical-name table.

    ``table`` is the raw dict monitors resolve against; the namespace
    wraps it in place (no copy), so a bind is visible to every monitor
    the next message they route.
    """

    def __init__(self, table: Optional[Dict[str, Any]] = None):
        #: the raw dict, shared with every monitor (hot-path resolution)
        self.table: Dict[str, Any] = table if table is not None else {}

    # -- the four verbs ----------------------------------------------------

    def bind(self, name: str, node: Any) -> None:
        """Bind ``name`` to ``node``; rebinding to a *different* node is an
        error (use :meth:`rebind` when a move is intended)."""
        existing = self.table.get(name)
        if existing is not None and existing != node:
            raise ConfigError(
                f"endpoint {name!r} already maps to {existing!r}"
            )
        self.table[name] = node

    def lookup(self, name: str) -> Any:
        """Resolve ``name`` or raise :class:`ServiceUnavailable`."""
        node = self.table.get(name)
        if node is None:
            raise ServiceUnavailable(f"no endpoint named {name!r}")
        return node

    def unbind(self, name: str) -> None:
        """Remove a binding (no-op when absent)."""
        self.table.pop(name, None)

    # -- queries -----------------------------------------------------------

    def get(self, name: str, default: Any = None) -> Any:
        """Non-raising lookup."""
        return self.table.get(name, default)

    def names_at(self, node: Any) -> List[str]:
        """Every name currently bound to ``node``, in bind order."""
        return [n for n, t in self.table.items() if t == node]

    def items(self) -> Iterator[Tuple[str, Any]]:
        return iter(self.table.items())

    def __contains__(self, name: str) -> bool:
        return name in self.table

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Namespace {len(self.table)} names>"
