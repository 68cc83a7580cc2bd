"""Accelerator model base class.

An accelerator in this reproduction is *behavioural*: a Python object whose
``main(shell)`` generator runs as a simulation process on a tile, consuming
cycles the way the real RTL would (per-item compute costs), holding state
between invocations (the paper's stateful-microservice point), and speaking
only through the :class:`~repro.kernel.shell.Shell`.

Fault-model hooks (Section 4.4):

* ``preemptible`` — if True, the accelerator externalizes per-context state
  (``externalize_state``/``restore_state``) and a fault in one context
  leaves other contexts running; if False the tile is fail-stop.
* fault injection — tests arm ``inject_fault_after`` to make the model
  raise :class:`~repro.errors.TileFault` mid-computation.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.errors import TileFault
from repro.hw.bitstream import Bitstream
from repro.hw.resources import ResourceVector

__all__ = ["Accelerator"]


class Accelerator:
    """Base class for every accelerator and OS service model.

    Subclasses override :meth:`main` and declare their fabric footprint via
    class attributes (used for resource budgeting and reconfiguration time).
    """

    #: resource footprint of the bitstream
    COST = ResourceVector(logic_cells=50_000, bram_kb=256, dsp_slices=16)
    #: primitive histogram declared to the DRC
    PRIMITIVES: Dict[str, int] = {"lut_logic": 40_000, "bram": 64}
    #: declared worst-case switching activity
    TOGGLE_RATE = 0.25
    #: design-family identity for bitstream content-addressing; ``None``
    #: means "this class" — every instance of one accelerator class is
    #: the same synthesized design, so replicas share a compiled artifact
    FAMILY: Optional[str] = None
    #: whether per-context state can be externalized (Section 4.4)
    preemptible = False

    def __init__(self, name: str):
        self.name = name
        self.shell = None  # set by the tile at start
        self.tile = None   # set by the tile at start
        self.inject_fault_after: Optional[int] = None
        self._work_items = 0
        self.busy_cycles = 0  # accumulated compute time (energy accounting)

    # -- identity / packaging ---------------------------------------------------

    @classmethod
    def design_family(cls) -> str:
        """The content-addressing identity shared by all instances."""
        return cls.FAMILY if cls.FAMILY is not None else cls.__name__

    def bitstream(self, signed_by: Optional[str] = None) -> Bitstream:
        return Bitstream.build(
            name=self.name,
            cost=self.COST,
            primitives=dict(self.PRIMITIVES),
            max_toggle_rate=self.TOGGLE_RATE,
            signed_by=signed_by,
            family=self.design_family(),
        )

    @classmethod
    def family_bitstream(cls, signed_by: Optional[str] = None) -> Bitstream:
        """The canonical bitstream of this design family (no instance).

        What the cache/prefetch layer hands the compile pipeline when it
        wants the *design* warm before any particular replica exists —
        it digests identically to every instance's :meth:`bitstream`.
        """
        return Bitstream.build(
            name=cls.design_family(),
            cost=cls.COST,
            primitives=dict(cls.PRIMITIVES),
            max_toggle_rate=cls.TOGGLE_RATE,
            signed_by=signed_by,
            family=cls.design_family(),
        )

    # -- execution ----------------------------------------------------------------

    def main(self, shell):
        """The accelerator's top-level process.  Override.

        Must be a generator (yield sim commands).  The default is an idle
        loop so bare tiles are valid.
        """
        while True:
            yield 1_000_000

    def _work(self, cost: int):
        """Charge ``cost`` cycles of compute, honouring fault injection.

        Subclasses call ``yield from self._work(n)`` for their busy loops so
        fault-injection tests work uniformly across accelerator types.
        """
        yield self._charge(cost)

    def _charge(self, cost: int) -> int:
        """:meth:`_work` for a callback service: count one work item of
        ``cost`` cycles and return the cycles to wait, or raise the
        injected fault."""
        self._work_items += 1
        if (
            self.inject_fault_after is not None
            and self._work_items > self.inject_fault_after
        ):
            self.inject_fault_after = None
            raise TileFault(f"{self.name}: injected fault")
        self.busy_cycles += cost
        return cost

    # -- preemption hooks (Section 4.4) ----------------------------------------------

    def externalize_state(self) -> Dict[str, Any]:
        """Architectural state to save when this accelerator is preempted.

        Only meaningful when :attr:`preemptible` is True.  The default
        captures nothing (a stateless accelerator).
        """
        return {}

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Restore previously externalized state."""

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name!r}>"
