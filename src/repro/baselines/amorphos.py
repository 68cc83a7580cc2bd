"""AmorphOS-style morphlet multiplexing — the time-sharing baseline.

AmorphOS "dynamically recompiles FPGA bitfiles and uses partial
reconfiguration to multiplex an FPGA between different applications" but
"does not provide higher-level services or address inter-accelerator
interactions" (Section 5).  The OS-relevant consequence we model: when more
apps than slots are resident, serving an app whose morphlet is not loaded
pays a *reconfiguration* delay — whereas Apiary keeps co-resident tiles and
pays only NoC hops.

Used by the composition/ablation experiments to show where time-sharing
loses to spatial sharing (and where it wins: very large morphlets that
couldn't co-reside).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Tuple

from repro.errors import ConfigError
from repro.hw.region import RECONFIG_CYCLES_PER_CELL
from repro.sim import Engine, Resource

__all__ = ["MorphletScheduler", "Morphlet"]

Handler = Callable[[Any], Tuple[int, Any, int]]


class Morphlet:
    """One application's bitstream + handler in the AmorphOS model."""

    def __init__(self, name: str, handler: Handler, logic_cells: int):
        if logic_cells < 1:
            raise ConfigError("morphlet needs a positive size")
        self.name = name
        self.handler = handler
        self.logic_cells = logic_cells
        self.requests_served = 0
        self.reconfigs = 0

    @property
    def reconfig_cycles(self) -> int:
        return max(1, self.logic_cells * RECONFIG_CYCLES_PER_CELL)


class MorphletScheduler:
    """LRU-resident morphlet slots over one FPGA.

    ``invoke(name, body)`` is a process generator: it faults the morphlet
    in if needed (paying reconfiguration), then runs the handler.  The
    fabric itself is serialized per slot; distinct resident morphlets run
    concurrently (spatial sharing across slots, time sharing within).
    """

    def __init__(self, engine: Engine, slots: int = 2):
        if slots < 1:
            raise ConfigError("need at least one slot")
        self.engine = engine
        self.slots = slots
        self._morphlets: Dict[str, Morphlet] = {}
        #: name -> slot resource, for resident morphlets (LRU order)
        self._resident: "OrderedDict[str, Resource]" = OrderedDict()
        self._reconfig_port = Resource(engine, slots=1, name="icap")
        self.faults = 0
        self.hits = 0

    def register(self, morphlet: Morphlet) -> None:
        if morphlet.name in self._morphlets:
            raise ConfigError(f"morphlet {morphlet.name!r} already registered")
        self._morphlets[morphlet.name] = morphlet

    @property
    def resident_names(self):
        return list(self._resident)

    def invoke(self, name: str, body: Any):
        """Process generator: returns the handler's (out_body, out_bytes)."""
        morphlet = self._morphlets.get(name)
        if morphlet is None:
            raise ConfigError(f"unknown morphlet {name!r}")
        if name in self._resident:
            self.hits += 1
            self._resident.move_to_end(name)
        else:
            self.faults += 1
            morphlet.reconfigs += 1
            # only one reconfiguration at a time through the config port
            grant = yield self._reconfig_port.acquire()
            try:
                if len(self._resident) >= self.slots:
                    self._resident.popitem(last=False)  # evict LRU
                yield morphlet.reconfig_cycles
                self._resident[name] = Resource(
                    self.engine, slots=1, name=f"slot.{name}"
                )
            finally:
                self._reconfig_port.release(grant)
        unit = self._resident[name]
        grant = yield unit.acquire()
        try:
            cycles, out_body, out_bytes = morphlet.handler(body)
            yield cycles
        finally:
            unit.release(grant)
        morphlet.requests_served += 1
        return out_body, out_bytes
