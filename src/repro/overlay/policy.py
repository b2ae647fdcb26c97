"""Robustness policies: retries, timeout budgets, circuit breaking.

JXTA-Overlay is best-effort middleware on a lossy network, but the
primitives in :mod:`repro.overlay.client` were originally written
retry-free against a lossless in-process path.  This module supplies the
policy layer the client wires in:

* :class:`RetryPolicy` — exponential backoff with deterministic jitter,
  waited out on the **virtual** clock so retries cost simulated time,
  never wall time;
* :class:`Timeout` — a virtual-clock budget for one whole primitive
  invocation (all attempts included);
* :class:`CircuitBreaker` — guards broker requests: after a run of
  consecutive transport failures it opens and fails fast
  (:class:`~repro.errors.CircuitOpenError`) until a virtual-time cooldown
  lets a half-open probe through.

Every retry records ``overlay.<primitive>.retries`` (attributed to the
innermost active primitive), every backoff wait records
``policy.retry.backoff_ms``, and breaker transitions are exported as the
``policy.breaker.state`` gauge plus the ``on_breaker_state`` hook — see
``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

from repro import obs
from repro.errors import (
    CircuitOpenError,
    NetworkError,
    PrimitiveTimeoutError,
)
from repro.net.linkq import LinkPolicy
from repro.overlay.primitives import current_primitive
from repro.sim.clock import VirtualClock

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff: how often to retry and how long to wait.

    ``max_attempts`` counts the first try; ``max_attempts=1`` disables
    retries.  The wait before attempt ``n+1`` is
    ``base_delay_s * multiplier**(n-1)`` capped at ``max_delay_s``, plus
    up to ``jitter`` of itself drawn from the supplied deterministic
    uniform draw (the sim RNG), so identical seeds replay identically.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay(self, failed_attempts: int,
              draw: Callable[[], float] | None = None) -> float:
        """Backoff before the next attempt, after ``failed_attempts`` >= 1."""
        if failed_attempts < 1:
            raise ValueError("delay() is asked after at least one failure")
        base = min(self.base_delay_s * self.multiplier ** (failed_attempts - 1),
                   self.max_delay_s)
        if self.jitter > 0 and draw is not None:
            base += base * self.jitter * draw()
        return base


#: Retries disabled: a single attempt, old best-effort semantics.
NO_RETRY = RetryPolicy(max_attempts=1)

#: Per-category defaults the client installs (overridable per call).
DEFAULT_RETRIES: dict[str, RetryPolicy] = {
    "broker": RetryPolicy(max_attempts=4, base_delay_s=0.1),
    "messenger": RetryPolicy(max_attempts=4, base_delay_s=0.05),
    "file": RetryPolicy(max_attempts=4, base_delay_s=0.05),
}


@dataclass(frozen=True)
class Timeout:
    """A virtual-clock budget covering every attempt of one invocation."""

    budget_s: float

    def __post_init__(self) -> None:
        if self.budget_s <= 0:
            raise ValueError("timeout budget must be positive")

    def deadline(self, clock: VirtualClock) -> float:
        return clock.now + self.budget_s


#: Default per-category timeout budgets, in virtual seconds.
DEFAULT_TIMEOUTS: dict[str, Timeout] = {
    "broker": Timeout(30.0),
    "messenger": Timeout(30.0),
    "file": Timeout(120.0),
}


#: Default link-layer scheduling knobs (batching caps, adaptive flush
#: window, bounded-queue overflow policy, compression floor) — see
#: :class:`repro.net.linkq.LinkPolicy`.  Re-exported here because the
#: link queues are a robustness surface: their overflow handling feeds
#: the same circuit breakers this module defines.
DEFAULT_LINK_POLICY = LinkPolicy()


def link_breaker_factory(clock: VirtualClock,
                         failure_threshold: int = 5,
                         reset_timeout_s: float = 30.0):
    """Per-destination breakers for a link scheduler.

    Returns the ``breaker_factory`` callable
    :meth:`~repro.net.linkq.LinkScheduler` expects: each destination
    gets its own :class:`CircuitBreaker`, so a dead link trips
    fail-fast drops without affecting traffic to healthy peers.
    """

    def factory(dst: str) -> CircuitBreaker:
        return CircuitBreaker(clock, failure_threshold=failure_threshold,
                              reset_timeout_s=reset_timeout_s,
                              name=f"link:{dst}")

    return factory


class CircuitBreaker:
    """Trip after consecutive failures; probe again after a cooldown.

    States follow the classic machine: ``closed`` (normal operation),
    ``open`` (fail fast until ``reset_timeout_s`` of virtual time has
    passed), ``half_open`` (one probe allowed; success closes, failure
    re-opens).  All timing runs on the virtual clock.
    """

    CLOSED, HALF_OPEN, OPEN = "closed", "half_open", "open"
    _STATE_GAUGE = {"closed": 0, "half_open": 1, "open": 2}

    def __init__(self, clock: VirtualClock, failure_threshold: int = 5,
                 reset_timeout_s: float = 30.0, name: str = "broker") -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        self.clock = clock
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self.name = name
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.open_total = 0

    def _transition(self, state: str) -> None:
        if state == self.state:
            return
        self.state = state
        registry = obs.get_registry()
        registry.set_gauge("policy.breaker.state", self._STATE_GAUGE[state])
        registry.incr("policy.breaker.transitions")
        obs.emit("on_breaker_state", name=self.name, state=state)

    def before_call(self) -> None:
        """Gate a call; raises :class:`CircuitOpenError` while open."""
        if self.state == self.OPEN:
            if self.clock.now - self.opened_at >= self.reset_timeout_s:
                self._transition(self.HALF_OPEN)
            else:
                raise CircuitOpenError(
                    f"circuit {self.name!r} is open "
                    f"({self.consecutive_failures} consecutive failures)")

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self._transition(self.CLOSED)

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if (self.state == self.HALF_OPEN
                or self.consecutive_failures >= self.failure_threshold):
            self.opened_at = self.clock.now
            if self.state != self.OPEN:
                self.open_total += 1
            self._transition(self.OPEN)


def run_with_retry(attempt: Callable[[], T], *, clock: VirtualClock,
                   retry: RetryPolicy, timeout: Timeout | None = None,
                   breaker: CircuitBreaker | None = None,
                   retry_on: tuple[type[BaseException], ...] = (NetworkError,),
                   draw: Callable[[], float] | None = None,
                   peer: str = "", label: str = "") -> tuple[T, int]:
    """Run ``attempt`` under a retry policy; returns (result, attempts).

    Transport-class failures (``retry_on``) are retried with backoff
    waited out on the virtual clock; anything else propagates untouched.
    The breaker, when given, gates the invocation once at entry and is
    fed one outcome per invocation: success, or a single failure when
    every attempt is spent (a retried-then-recovered call is a success).
    Exceeding the timeout budget raises :class:`PrimitiveTimeoutError`;
    exhausting the attempts re-raises the last transport error.  Either
    way the raised exception carries the count as ``exc.attempts``.
    """
    deadline = timeout.deadline(clock) if timeout is not None else None
    primitive = current_primitive() or label or "call"
    if breaker is not None:
        breaker.before_call()
    attempts = 0
    while True:
        attempts += 1
        try:
            result = attempt()
        except retry_on as exc:
            if attempts >= retry.max_attempts:
                if breaker is not None:
                    breaker.record_failure()
                exc.attempts = attempts
                raise
            delay = retry.delay(attempts, draw)
            if deadline is not None and clock.now + delay > deadline:
                if breaker is not None:
                    breaker.record_failure()
                timeout_exc = PrimitiveTimeoutError(
                    f"{primitive}: timeout budget of {timeout.budget_s}s "
                    f"exhausted after {attempts} attempts")
                timeout_exc.attempts = attempts
                raise timeout_exc from exc
            registry = obs.get_registry()
            registry.incr(f"overlay.{primitive}.retries")
            registry.observe("policy.retry.backoff_ms", delay * 1e3)
            obs.emit("on_retry", peer=peer, primitive=primitive,
                     attempt=attempts, reason=str(exc))
            clock.advance(delay)
        else:
            if breaker is not None:
                breaker.record_success()
            return result, attempts
