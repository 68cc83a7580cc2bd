"""Shared retry/timeout policy — one vocabulary for every client.

:class:`RetryPolicy` is the one home of the five retry knobs (deadline,
per-attempt timeout, attempt cap, backoff base/cap) and of the
deadline/backoff loop: a frozen dataclass that plugs into the primary
request APIs of the shell and the remote client alike::

    msg  = yield shell.call("svc.kv", "kv.get", retry=RetryPolicy())
    resp = yield client.request(mac, port, body, retry=RetryPolicy(
        deadline=400_000, attempt_timeout=50_000))

Backoff is deterministic (exponential, no jitter) so seeded experiments
replay exactly — the property every byte-identity test in this repo
leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type

from repro.errors import ConfigError, DeadlineExceeded
from repro.sim import Engine, Event

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Deadline + per-attempt timeout + exponential backoff.

    Parameters
    ----------
    deadline: total cycles the caller is willing to wait across attempts.
    attempt_timeout: per-attempt timeout (clamped to what remains of the
        deadline, so the last attempt never overshoots).
    max_attempts: optional attempt cap (None = until the deadline).
    backoff_base / backoff_cap: exponential backoff between attempts,
        ``min(base * 2**(attempt-1), cap)``, deterministic by design.
    """

    deadline: int = 200_000
    attempt_timeout: int = 20_000
    max_attempts: Optional[int] = None
    backoff_base: int = 500
    backoff_cap: int = 16_000

    def __post_init__(self) -> None:
        if self.deadline < 1:
            raise ConfigError(f"deadline must be >= 1, got {self.deadline}")
        if self.attempt_timeout < 1:
            raise ConfigError(
                f"attempt_timeout must be >= 1, got {self.attempt_timeout}"
            )
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1 or None")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ConfigError("backoff parameters must be >= 0")

    def backoff_for(self, attempt: int) -> int:
        """Backoff after the ``attempt``-th failure (1-based)."""
        return min(self.backoff_base * (2 ** (attempt - 1)), self.backoff_cap)

    # -- the one retry loop ------------------------------------------------

    def attempts(
        self,
        engine: Engine,
        attempt_fn: Callable[[int], Event],
        retry_on: Tuple[Type[BaseException], ...],
        describe: str = "request",
        on_retry: Optional[Callable[[], None]] = None,
    ):
        """Generator: run ``attempt_fn`` under this policy from inside the
        caller's own process (``value = yield from policy.attempts(...)``).

        ``attempt_fn(timeout)`` must issue one attempt and return an event
        that succeeds with the result or fails.  Failures in ``retry_on``
        are retried (after backoff) until the deadline or attempt cap is
        spent, at which point :class:`DeadlineExceeded` is raised; any
        other failure propagates immediately (retrying e.g. a capability
        denial never helps).  ``on_retry`` is invoked once per retried
        failure — the hook the shell uses to count ``calls_retried``.
        """
        start = engine.now
        attempt = 0
        last_error: Optional[BaseException] = None
        while True:
            remaining = self.deadline - (engine.now - start)
            out_of_attempts = (self.max_attempts is not None
                               and attempt >= self.max_attempts)
            if remaining <= 0 or out_of_attempts:
                raise DeadlineExceeded(
                    f"{describe} gave up after {attempt} attempt(s) in "
                    f"{engine.now - start} cycles "
                    f"(last error: {last_error})"
                )
            attempt += 1
            try:
                return (yield attempt_fn(min(self.attempt_timeout, remaining)))
            except retry_on as err:
                last_error = err
                if on_retry is not None:
                    on_retry()
            backoff = self.backoff_for(attempt)
            backoff = max(1, min(backoff,
                                 self.deadline - (engine.now - start)))
            yield backoff

    def drive(
        self,
        engine: Engine,
        attempt_fn: Callable[[int], Event],
        retry_on: Tuple[Type[BaseException], ...],
        describe: str = "request",
        on_retry: Optional[Callable[[], None]] = None,
        name: str = "",
    ) -> Event:
        """:meth:`attempts` in a process of its own: the returned event
        succeeds with the value or fails with what the loop raised (a
        closed process answers nobody — ``GeneratorExit`` is no outcome)."""
        result = engine.event(name or f"retry.{describe}")

        def run():
            try:
                value = yield from self.attempts(engine, attempt_fn, retry_on,
                                                 describe, on_retry)
            except Exception as err:
                result.fail(err)
            else:
                result.succeed(value)

        engine.process(run(), name=name or f"retry.{describe}")
        return result
