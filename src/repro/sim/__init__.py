"""Discrete-event simulation kernel.

Everything in the reproduction runs on this substrate: an integer-cycle
:class:`Engine`, generator-coroutine :class:`Process` objects, bounded
:class:`Channel` FIFOs with backpressure, counted :class:`Resource`
semaphores, deterministic :class:`RngPool` streams, and the measurement
primitives in :mod:`repro.sim.stats`.  (Observation — spans and events —
lives in :mod:`repro.obs`.)
"""

from repro.sim.channel import Channel
from repro.sim.engine import Engine, Event, Interrupt, Process
from repro.sim.resource import Grant, Resource
from repro.sim.rng import RngPool
from repro.sim.stats import Counter, Gauge, Histogram, StatsRegistry

__all__ = [
    "Engine",
    "Event",
    "Process",
    "Interrupt",
    "Channel",
    "Resource",
    "Grant",
    "RngPool",
    "Counter",
    "Gauge",
    "Histogram",
    "StatsRegistry",
]
