"""Quality-of-service primitives: token buckets and traffic meters.

Section 4.5: "With untrusted accelerators, having permissioned access and
rate limiting are necessary to prevent malicious accelerators from ...
causing resource exhaustion."  The Apiary monitor attaches a
:class:`TokenBucket` to each tile's injection path; the NoC itself stays
policy-free.
"""

from __future__ import annotations

from repro.errors import ConfigError

__all__ = ["TokenBucket", "RateMeter"]


class TokenBucket:
    """Classic token bucket over the simulation clock.

    Parameters
    ----------
    rate_per_cycle:
        Tokens accrued per cycle (flits/cycle the sender may sustain).
    burst:
        Bucket depth: the largest back-to-back burst admitted at line rate.

    The bucket is passive: callers ask :meth:`consume` / :meth:`cycles_until`
    with the current time; no process runs per cycle.
    """

    def __init__(self, rate_per_cycle: float, burst: float, start_time: int = 0):
        if rate_per_cycle <= 0:
            raise ConfigError(f"rate must be positive, got {rate_per_cycle}")
        if burst < 1:
            raise ConfigError(f"burst must be >= 1 token, got {burst}")
        self.rate = rate_per_cycle
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last = start_time
        self.admitted = 0
        self.throttled = 0

    def _refill(self, now: int) -> None:
        if now < self._last:
            raise ConfigError("token bucket observed time going backwards")
        self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
        self._last = now

    def tokens(self, now: int) -> float:
        self._refill(now)
        return self._tokens

    def consume(self, now: int, amount: float = 1.0) -> bool:
        """Take ``amount`` tokens if admissible; record the outcome.

        A request larger than the bucket depth is admitted once the bucket
        is *full*, driving the balance negative (debt) — the standard
        shaper behaviour for jumbo packets: long-run rate is still enforced
        because the debt must refill before anything else is admitted.
        """
        self._refill(now)
        threshold = min(amount, self.burst)
        if self._tokens + 1e-12 >= threshold:
            self._tokens -= amount
            self.admitted += 1
            return True
        self.throttled += 1
        return False

    def cycles_until(self, now: int, amount: float = 1.0) -> int:
        """Cycles until ``amount`` tokens become admissible (0 = now)."""
        self._refill(now)
        deficit = min(amount, self.burst) - self._tokens
        if deficit <= 1e-12:
            return 0
        return max(1, int(-(-deficit // self.rate)))  # ceil division


class RateMeter:
    """Sliding-window rate estimate, for monitoring/tracing dashboards.

    Counts events into fixed-size buckets; :meth:`rate` averages over the
    most recent full window.  Used by monitor telemetry (D5) to show a
    victim's goodput collapsing and recovering.
    """

    def __init__(self, window_cycles: int = 1000, buckets: int = 10):
        if window_cycles < buckets:
            raise ConfigError("window must cover at least one cycle per bucket")
        self.bucket_cycles = window_cycles // buckets
        self.buckets = buckets
        self._counts = [0] * buckets
        self._current = 0

    def record(self, now: int, amount: int = 1) -> None:
        """Count ``amount`` at ``now``, first ageing out the buckets
        between the current one and ``now``'s — the whole window at once
        after an idle gap of a window or more."""
        counts, buckets = self._counts, self.buckets
        bucket_index = now // self.bucket_cycles
        gap = bucket_index - self._current
        if gap > 0:
            if gap >= buckets:
                self._counts = counts = [0] * buckets
            else:
                for index in range(self._current + 1, bucket_index + 1):
                    counts[index % buckets] = 0
            self._current = bucket_index
        counts[self._current % buckets] += amount

    def rate(self, now: int) -> float:
        """Events per cycle over the window ending at ``now``."""
        self.record(now, 0)  # age the window out to ``now``
        window = self.bucket_cycles * self.buckets
        return sum(self._counts) / window
