"""Workload generation: arrival processes, distributions, remote clients."""

from repro.workloads.client import RemoteClientHost
from repro.workloads.generators import (
    constant_gaps,
    keyed_stream,
    lognormal_gaps,
    pareto_gaps,
    poisson_gaps,
    video_chunks,
    zipf_keys,
)

__all__ = [
    "RemoteClientHost",
    "constant_gaps",
    "poisson_gaps",
    "lognormal_gaps",
    "pareto_gaps",
    "keyed_stream",
    "zipf_keys",
    "video_chunks",
]
