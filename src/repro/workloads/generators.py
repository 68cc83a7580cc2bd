"""Workload generators: arrival processes and key/size distributions.

The evaluation harness drives every system (Apiary, hosted, bare) with the
same generators so comparisons differ only in the system under test.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Union

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "poisson_gaps",
    "constant_gaps",
    "lognormal_gaps",
    "pareto_gaps",
    "keyed_stream",
    "zipf_keys",
    "video_chunks",
]

#: frames per video chunk (one second at 30 fps)
CHUNK_FRAMES = 30
#: median encoded chunk size; sizes are log-normal around it
CHUNK_BYTES = 500_000


def keyed_stream(seed: int, *labels: str) -> np.random.Generator:
    """An independent generator keyed by ``(seed, labels...)``.

    Two streams with the same seed but different labels are statistically
    independent (the seed is mixed through SHA-256, exactly like
    :class:`~repro.sim.rng.RngPool`), so a tenant's key-popularity draws
    never correlate with its arrival process — or with another tenant's
    keys — even when everything shares one scenario seed.
    """
    tag = ":".join((str(seed),) + labels)
    digest = hashlib.sha256(tag.encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def constant_gaps(rate_per_kcycle: float, count: int) -> List[int]:
    """Deterministic arrivals: one request every ``1000/rate`` cycles."""
    if rate_per_kcycle <= 0:
        raise ConfigError("rate must be positive")
    gap = max(1, int(1000 / rate_per_kcycle))
    return [gap] * count


def poisson_gaps(rng: np.random.Generator, rate_per_kcycle: float,
                 count: int) -> List[int]:
    """Exponential inter-arrival gaps for an open-loop Poisson process."""
    if rate_per_kcycle <= 0:
        raise ConfigError("rate must be positive")
    mean_gap = 1000.0 / rate_per_kcycle
    gaps = rng.exponential(mean_gap, size=count)
    return [max(1, int(g)) for g in gaps]


def lognormal_gaps(rng: np.random.Generator, rate_per_kcycle: float,
                   count: int, sigma: float = 1.0) -> List[int]:
    """Log-normally distributed inter-arrival gaps (heavy-tailed).

    ``sigma`` is the shape parameter: the log-scale ``mu`` is solved so
    the *mean* gap stays ``1000 / rate`` whatever the shape — the long-run
    offered rate is the contract, the tail weight is the knob.
    """
    if rate_per_kcycle <= 0:
        raise ConfigError("rate must be positive")
    if sigma <= 0:
        raise ConfigError("sigma must be positive")
    mean_gap = 1000.0 / rate_per_kcycle
    mu = np.log(mean_gap) - sigma * sigma / 2.0
    gaps = rng.lognormal(mean=mu, sigma=sigma, size=count)
    return [max(1, int(g)) for g in gaps]


def pareto_gaps(rng: np.random.Generator, rate_per_kcycle: float,
                count: int, alpha: float = 1.5) -> List[int]:
    """Pareto (Lomax) inter-arrival gaps — the classic flash-crowd tail.

    ``alpha`` must exceed 1 so the mean exists; the scale is solved so the
    mean gap is ``1000 / rate``.  Smaller ``alpha`` means heavier tails:
    long quiet stretches punctuated by dense request bursts at the same
    long-run rate.
    """
    if rate_per_kcycle <= 0:
        raise ConfigError("rate must be positive")
    if alpha <= 1.0:
        raise ConfigError("pareto needs alpha > 1.0 for a finite mean")
    mean_gap = 1000.0 / rate_per_kcycle
    scale = mean_gap * (alpha - 1.0)
    gaps = scale * rng.pareto(alpha, size=count)
    return [max(1, int(g)) for g in gaps]


def zipf_keys(rng: Union[np.random.Generator, int], count: int,
              universe: int = 10_000, skew: float = 1.1,
              stream: Optional[str] = None) -> List[int]:
    """Zipf-distributed keys over an explicit ``universe`` of key ids.

    ``rng`` may be a generator (legacy spelling) or a plain integer seed;
    with a seed, the draws come from an independent stream keyed by
    ``(seed, "zipf", stream)``, so two tenants sharing one scenario seed
    get *uncorrelated* key popularity as long as their ``stream`` labels
    differ — and neither perturbs (or is perturbed by) the arrival
    process drawn from the same seed.
    """
    if skew <= 1.0:
        raise ConfigError("numpy zipf needs skew > 1.0")
    if universe < 1:
        raise ConfigError("key universe must hold at least one key")
    if isinstance(rng, (int, np.integer)):
        rng = keyed_stream(int(rng), "zipf", stream or "")
    elif stream is not None:
        raise ConfigError(
            "stream= labels an independent draw from a seed; pass an "
            "integer seed with it, not a live generator"
        )
    keys = rng.zipf(skew, size=count)
    return [int(k % universe) for k in keys]


def video_chunks(rng: np.random.Generator, count: int) -> List[dict]:
    """Video chunks with log-normally distributed sizes (content-dependent)."""
    sizes = rng.lognormal(mean=np.log(CHUNK_BYTES), sigma=0.4, size=count)
    return [
        {"seq": i, "frames": CHUNK_FRAMES,
         "bytes": max(10_000, int(sizes[i]))}
        for i in range(count)
    ]
