"""Per-layer event attribution, from outside the program.

:func:`tracing` replaces ``Engine.schedule`` with a wrapper that counts
every schedule (ring or heap), and hands the engine a timed stand-in
for the callback: when the engine later runs it, the stand-in times the
real callback with ``perf_counter_ns`` and books the event against the
callback's *owner*.  Engine callbacks never nest (a callback can only
enqueue more callbacks), so the timed interval is self time.

The owner is found from the callback's code object:

* a bound method of a :class:`~repro.sim.engine.Process` (``_resume``,
  the two timer hops, ``_throw``) belongs to the *generator* it drives —
  the router loop, the monitor loop, the front-end prober — not to
  ``sim``;
* ``functools.partial`` is unwrapped to the function it wraps;
* any other bound method, function or closure belongs to the module
  its code was compiled from.

ROADMAP 1(b) plans patch-free counters inside ``Engine``.  When they
land they replace this module; no metric is renamed.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro.cluster import backend as backend_module
from repro.cluster.cluster import Cluster
from repro.sim.engine import Engine, Process

__all__ = ["LAYERS", "HOT_KINDS", "Tracer", "tracing", "owner_code",
           "layer_of", "kind_of"]

#: the layers events are attributed to (``other`` = every package of
#: ``repro`` not named here: accel, apps, replic, sched, mem, hw, ...)
LAYERS = ("sim", "noc", "kernel", "net", "cluster", "loadgen", "obs",
          "policy", "other")

#: hot process kinds: metric name -> (part of the file path, end of the
#: code's qualname).  ``noc.link_callbacks`` is every noc callback that
#: is not a generator (flit arrival, credit return), matched separately.
HOT_KINDS: Dict[str, Tuple[str, str]] = {
    "noc.router_run": ("repro/noc/router.py", "Router._run"),
    "noc.ni_injector": ("repro/noc/network.py", "NetworkInterface._injector"),
    "noc.ni_ejector": ("repro/noc/network.py", "NetworkInterface._ejector"),
    "kernel.monitor_egress": ("repro/kernel/monitor.py",
                              "Monitor._egress_loop"),
    "kernel.monitor_ingress": ("repro/kernel/monitor.py",
                               "Monitor._ingress_loop"),
    "net.mac_tx": ("repro/net/ethernet.py", "_tx_loop"),
    "net.fabric_arrive": ("repro/net/", ".arrive"),
    "cluster.frontend_prober": ("repro/cluster/frontend.py",
                                "FrontEnd._prober"),
    "cluster.frontend_serve": ("repro/cluster/frontend.py",
                               "FrontEnd._serve"),
}
LINK_CALLBACKS = "noc.link_callbacks"


def owner_code(callback: Callable) -> Optional[Any]:
    """The code object whose author owns ``callback`` (None if opaque)."""
    while isinstance(callback, functools.partial):
        callback = callback.func
    bound_to = getattr(callback, "__self__", None)
    if isinstance(bound_to, Process):
        return bound_to.generator.gi_code
    func = getattr(callback, "__func__", callback)
    return getattr(func, "__code__", None)


def layer_of(code: Optional[Any]) -> str:
    """The layer a code object belongs to, by the file it came from."""
    if code is None:
        return "other"
    path = code.co_filename.replace("\\", "/")
    if "/perf/" in path:
        # the benchmark's own generators (flood senders and sinks)
        return "loadgen"
    _, sep, inside = path.rpartition("/repro/")
    if not sep:
        return "other"
    package = inside.split("/", 1)[0]
    if package.endswith(".py"):
        package = package[:-3]
    return package if package in LAYERS else "other"


def _qualname(code: Any) -> str:
    return getattr(code, "co_qualname", code.co_name)


def kind_of(code: Optional[Any]) -> Optional[str]:
    """The hot process kind of a code object, if it is one."""
    if code is None:
        return None
    path = code.co_filename.replace("\\", "/")
    name = _qualname(code)
    for kind, (suffix, qualname) in HOT_KINDS.items():
        if suffix in path and name.endswith(qualname):
            return kind
    if "repro/noc/" in path and not code.co_flags & inspect.CO_GENERATOR:
        return LINK_CALLBACKS
    return None


class Tracer:
    """Counts and self times of one traced run, keyed by code object.

    Booking is off until :meth:`begin` (set-up events are not the run's)
    and the totals are resolved to layers only once, in :meth:`summary`
    — the per-event path is two dict operations.
    """

    def __init__(self) -> None:
        self.active = False
        self.schedules_ring = 0
        self.schedules_heap = 0
        #: code object -> [events, self nanoseconds]
        self.slots: Dict[Any, list] = {}
        #: seconds inside Engine.run (run_window included, counted once)
        self.engine_s = 0.0
        self.window_calls = 0
        #: seconds inside Cluster.run
        self.cluster_run_s = 0.0
        self.roundtrips = 0
        self.pickle_s = 0.0

    def begin(self) -> None:
        self.active = True

    def end(self) -> None:
        self.active = False

    def book(self, callback: Callable, nanos: int) -> None:
        code = owner_code(callback)
        slot = self.slots.get(code)
        if slot is None:
            slot = self.slots[code] = [0, 0]
        slot[0] += 1
        slot[1] += nanos

    def summary(self) -> Dict[str, float]:
        """Every trace-derived per-layer metric, by name."""
        events = {layer: 0 for layer in LAYERS}
        nanos = {layer: 0 for layer in LAYERS}
        kinds = {kind: [0, 0] for kind in (*HOT_KINDS, LINK_CALLBACKS)}
        for code, (count, spent) in self.slots.items():
            layer = layer_of(code)
            events[layer] += count
            nanos[layer] += spent
            kind = kind_of(code)
            if kind is not None:
                kinds[kind][0] += count
                kinds[kind][1] += spent
        total_ns = sum(nanos.values()) or 1
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.events"] = events[layer]
            out[f"{layer}.self_s"] = nanos[layer] / 1e9
            out[f"{layer}.self_frac"] = nanos[layer] / total_ns
        for kind, (count, spent) in kinds.items():
            out[f"{kind}.events"] = count
            out[f"{kind}.self_s"] = spent / 1e9
        out["sim.schedules_ring"] = self.schedules_ring
        out["sim.schedules_heap"] = self.schedules_heap
        out["sim.schedules_total"] = self.schedules_ring + self.schedules_heap
        # heap, ring and wrapper cost: engine time outside every callback
        out["sim.loop_s"] = self.engine_s - sum(nanos.values()) / 1e9
        out["cluster.backend.window_calls"] = self.window_calls
        out["cluster.backend.engine_s"] = self.engine_s
        out["cluster.backend.protocol_s"] = max(
            0.0, self.cluster_run_s - self.engine_s)
        out["net.envelope.roundtrips"] = self.roundtrips
        out["net.envelope.pickle_s"] = self.pickle_s
        return out


@contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Install the wrappers for the duration of the block.

    Patches class attributes (``Engine`` has ``__slots__``), so it is
    meant for a process that does nothing else — the benchmark runs the
    traced repetition in a child interpreter of its own.
    """
    orig_schedule = Engine.schedule
    orig_run = Engine.run
    orig_run_window = Engine.run_window
    orig_cluster_run = Cluster.run
    orig_roundtrip = backend_module.pickle_roundtrip
    clock_ns = time.perf_counter_ns
    clock = time.perf_counter

    def timed(pair):
        callback, arg = pair
        t0 = clock_ns()
        callback(arg)
        spent = clock_ns() - t0
        if tracer.active:
            tracer.book(callback, spent)

    def schedule(self, delay, callback, arg=None):
        if tracer.active:
            if delay == 0:
                tracer.schedules_ring += 1
            else:
                tracer.schedules_heap += 1
        orig_schedule(self, delay, timed, (callback, arg))

    def run(self, until=None):
        t0 = clock()
        try:
            orig_run(self, until)
        finally:
            if tracer.active:
                tracer.engine_s += clock() - t0

    def run_window(self, until_cycle):
        if tracer.active:
            tracer.window_calls += 1
        orig_run_window(self, until_cycle)

    def cluster_run(self, until=None):
        t0 = clock()
        try:
            orig_cluster_run(self, until)
        finally:
            if tracer.active:
                tracer.cluster_run_s += clock() - t0

    def roundtrip(envelope):
        t0 = clock()
        try:
            return orig_roundtrip(envelope)
        finally:
            if tracer.active:
                tracer.roundtrips += 1
                tracer.pickle_s += clock() - t0

    Engine.schedule = schedule
    Engine.run = run
    Engine.run_window = run_window
    Cluster.run = cluster_run
    backend_module.pickle_roundtrip = roundtrip
    try:
        yield tracer
    finally:
        Engine.schedule = orig_schedule
        Engine.run = orig_run
        Engine.run_window = orig_run_window
        Cluster.run = orig_cluster_run
        backend_module.pickle_roundtrip = orig_roundtrip
