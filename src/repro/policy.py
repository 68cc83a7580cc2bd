"""Shared retry/timeout policy — one vocabulary for every client.

:class:`RetryPolicy` is the one home of the four retry knobs (deadline,
per-attempt timeout, backoff base/cap): a frozen dataclass
that the shell's calls and the cluster front-end's request path both
take::

    msg = yield shell.call("svc.kv", "kv.get", retry=RetryPolicy())
    fe = cluster.start_frontend(retry=RetryPolicy(
        deadline=400_000, attempt_timeout=50_000))

:class:`RetryLoop` is the one deadline/backoff loop under both: engine
callbacks, no process and no generator — :meth:`RetryPolicy.drive` runs
it for the shell, and a front-end request *is* one.  Backoff is
deterministic (exponential, no jitter) so seeded experiments replay
exactly — the property every byte-identity test in this repo leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple, Type

from repro.errors import ConfigError, DeadlineExceeded
from repro.sim import Engine, Event

__all__ = ["RetryLoop", "RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Deadline + per-attempt timeout + exponential backoff.

    Parameters
    ----------
    deadline: total cycles the caller is willing to wait across attempts.
    attempt_timeout: per-attempt timeout (clamped to what remains of the
        deadline, so the last attempt never overshoots).
    backoff_base / backoff_cap: exponential backoff between attempts,
        ``min(base * 2**(attempt-1), cap)``, deterministic by design.
    """

    deadline: int = 200_000
    attempt_timeout: int = 20_000
    backoff_base: int = 500
    backoff_cap: int = 16_000

    def __post_init__(self) -> None:
        if self.deadline < 1:
            raise ConfigError(f"deadline must be >= 1, got {self.deadline}")
        if self.attempt_timeout < 1:
            raise ConfigError(
                f"attempt_timeout must be >= 1, got {self.attempt_timeout}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ConfigError("backoff parameters must be >= 0")

    def backoff_for(self, attempt: int) -> int:
        """Backoff after the ``attempt``-th failure (1-based)."""
        return min(self.backoff_base * (2 ** (attempt - 1)), self.backoff_cap)

    def drive(
        self,
        engine: Engine,
        attempt_fn: Callable[[int], Event],
        retry_on: Tuple[Type[BaseException], ...],
        describe: str = "request",
        on_retry: Optional[Callable[[], None]] = None,
        name: str = "",
    ) -> Event:
        """Run ``attempt_fn`` under this policy; the returned event succeeds
        with the value or fails with what ended the loop.

        ``attempt_fn(timeout)`` must issue one attempt and return an event
        that succeeds with the result or fails.  Failures in ``retry_on``
        are retried (after backoff) until the deadline is spent, at which
        point the event fails with :class:`DeadlineExceeded`; any other
        failure ends it at once (retrying e.g. a capability denial never
        helps).  ``on_retry`` is invoked once per retried failure — the
        hook the shell uses to count ``calls_retried``.  The first attempt
        is issued before this returns; each later one after its backoff's
        bucket entry.
        """
        result = engine.event(name or f"retry.{describe}")
        _EventRetry(self, engine, retry_on, describe, attempt_fn, on_retry,
                    result).begin()
        return result


class RetryLoop:
    """One caller's run of the :class:`RetryPolicy` loop, as engine
    callbacks — the one retry loop, which the shell's calls and the
    cluster front-end's requests both run.

    A caller subclasses it: :meth:`_issue` sends one attempt and hands
    its outcome to :meth:`settle` (success or failure), :meth:`_retried`
    hears each retried failure, and :meth:`_finish` gets the loop's one
    outcome — a value, or the error that ended it.  The deadline counts
    from :meth:`begin`.  A failure in ``retry_on`` — handed to
    :meth:`settle`, or raised by :meth:`_issue` itself — is retried
    when the policy's backoff runs out (one bucket entry, the loop's only
    engine schedule); any other ``Exception`` is the loop's outcome (a
    ``BaseException`` that is not one propagates).
    """

    __slots__ = ("policy", "engine", "retry_on", "describe", "began",
                 "attempt", "last_error")

    def __init__(self, policy: RetryPolicy, engine: Engine,
                 retry_on: Tuple[Type[BaseException], ...],
                 describe: str) -> None:
        self.policy = policy
        self.engine = engine
        self.retry_on = retry_on
        self.describe = describe
        self.began = 0
        self.attempt = 0
        self.last_error: Optional[BaseException] = None

    def _issue(self, attempt_timeout: int) -> None:
        raise NotImplementedError

    def _retried(self) -> None:
        """A failure is about to be retried."""

    def _finish(self, value: Any, error: Optional[BaseException]) -> None:
        raise NotImplementedError

    def begin(self) -> None:
        """Start the loop: its deadline counts from now."""
        self.began = self.engine.now
        self._next()

    def _next(self, _arg: Any = None) -> None:
        """Issue the next attempt, or give up."""
        policy = self.policy
        spent = self.engine.now - self.began
        remaining = policy.deadline - spent
        if remaining <= 0:
            self._finish(None, DeadlineExceeded(
                f"{self.describe} gave up after {self.attempt} attempt(s) "
                f"in {spent} cycles (last error: {self.last_error})"))
            return
        self.attempt += 1
        try:
            self._issue(min(policy.attempt_timeout, remaining))
        except self.retry_on as err:
            self._retry(err)
        except Exception as err:
            self._finish(None, err)

    def settle(self, value: Any, error: Optional[BaseException] = None,
               ) -> None:
        """The issued attempt's outcome."""
        if error is None:
            self._finish(value, None)
        elif isinstance(error, self.retry_on):
            self._retry(error)
        else:
            self._finish(None, error)

    def _retry(self, error: BaseException) -> None:
        self.last_error = error
        self._retried()
        # the last backoff is clamped to what is left of the deadline
        backoff = max(1, min(self.policy.backoff_for(self.attempt),
                             self.policy.deadline
                             - (self.engine.now - self.began)))
        self.engine.schedule(backoff, self._next)


class _EventRetry(RetryLoop):
    """:meth:`RetryPolicy.drive`'s loop: attempts and outcome are events."""

    __slots__ = ("attempt_fn", "on_retry", "result")

    def __init__(self, policy: RetryPolicy, engine: Engine,
                 retry_on: Tuple[Type[BaseException], ...], describe: str,
                 attempt_fn: Callable[[int], Event],
                 on_retry: Optional[Callable[[], None]],
                 result: Event) -> None:
        super().__init__(policy, engine, retry_on, describe)
        self.attempt_fn = attempt_fn
        self.on_retry = on_retry
        self.result = result

    def _issue(self, attempt_timeout: int) -> None:
        self.attempt_fn(attempt_timeout).add_callback(self._attempted)

    def _attempted(self, attempt: Event) -> None:
        if attempt.failed:
            self.settle(None, attempt.value)
        else:
            self.settle(attempt.value)

    def _retried(self) -> None:
        if self.on_retry is not None:
            self.on_retry()

    def _finish(self, value: Any, error: Optional[BaseException]) -> None:
        if error is None:
            self.result.succeed(value)
        else:
            self.result.fail(error)
