"""Resilience primitives: seeded retries and shared deadlines.

The experiment service stack (daemon, job queue, chunk checkpoints,
result store) runs long campaigns that *will* be interrupted or
overloaded mid-flight.  This module holds the policies those layers use
to survive that while keeping the repo's core contract intact: **retried
runs must stay bit-identical to the fault-free serial run**, which is why
every source of retry timing randomness here is explicitly seeded and why
none of these helpers ever touches experiment randomness.

* :class:`RetryPolicy` — bounded exponential backoff whose jitter comes
  from a seeded generator, so two replays of the same failing run sleep
  the same schedule (reproducible logs, reproducible tests).
* :class:`Deadline` — a monotonic time budget that can be shared across
  nested calls (``remaining()`` shrinks as work proceeds).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Tuple, Type


class DeadlineExceeded(TimeoutError):
    """Raised by :meth:`Deadline.check` when the time budget is spent."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with *seeded* jitter.

    ``delay(attempt)`` for attempt ``k`` (0-based) is
    ``min(base_delay * multiplier**k, max_delay)`` scaled by a jitter
    factor drawn uniformly from ``[1 - jitter, 1 + jitter]``.  The jitter
    stream is derived from ``seed`` alone, so the full sleep schedule of a
    retried run is a pure function of the policy — retried runs stay
    reproducible, which is part of the repo's golden contract.
    """

    max_attempts: int = 5
    base_delay: float = 0.1
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def delays(self) -> Iterator[float]:
        """Yield the sleep before each retry (``max_attempts - 1`` values)."""
        rng = random.Random(self.seed)
        for attempt in range(self.max_attempts - 1):
            delay = min(self.base_delay * self.multiplier**attempt, self.max_delay)
            scale = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            yield delay * scale

    def call(
        self,
        fn: Callable[[], Any],
        retry_on: Tuple[Type[BaseException], ...] = (OSError,),
        sleep: Callable[[float], None] = time.sleep,
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
        deadline: Optional["Deadline"] = None,
    ) -> Any:
        """Run ``fn`` up to ``max_attempts`` times, backing off between tries.

        Only exceptions matching ``retry_on`` are retried; the final
        failure (or a spent ``deadline``) re-raises the last exception.
        ``on_retry(attempt, error)`` is called before each backoff sleep —
        use it for logging or counters.
        """
        last: Optional[BaseException] = None
        for attempt, delay in enumerate(list(self.delays()) + [None]):
            try:
                return fn()
            except retry_on as error:  # noqa: PERF203 - retry loop by design
                last = error
                if delay is None or (deadline is not None and deadline.expired()):
                    raise
                if on_retry is not None:
                    on_retry(attempt, error)
                if deadline is not None:
                    delay = min(delay, max(deadline.remaining(), 0.0))
                sleep(delay)
        raise last  # pragma: no cover - loop always returns or raises


class Deadline:
    """A monotonic time budget shared across nested operations.

    ``Deadline(5.0)`` expires five seconds after construction;
    ``Deadline(None)`` never expires (an unlimited budget callers can
    thread through uniformly).  The clock is injectable for deterministic
    tests.
    """

    def __init__(
        self,
        seconds: Optional[float],
        clock: Callable[[], float] = time.monotonic,
    ):
        self._clock = clock
        self.seconds = seconds
        self._expires = None if seconds is None else clock() + seconds

    @classmethod
    def unlimited(cls) -> "Deadline":
        """A deadline that never expires."""
        return cls(None)

    def remaining(self) -> float:
        """Seconds left (clamped to 0); ``inf`` for an unlimited deadline."""
        if self._expires is None:
            return float("inf")
        return max(0.0, self._expires - self._clock())

    def expired(self) -> bool:
        """Whether the budget is spent."""
        return self._expires is not None and self._clock() >= self._expires

    def check(self, label: str = "operation") -> None:
        """Raise :class:`DeadlineExceeded` when the budget is spent."""
        if self.expired():
            raise DeadlineExceeded(f"{label} exceeded its {self.seconds:.1f}s deadline")

    def extend(self, seconds: float) -> None:
        """Push the expiry ``seconds`` further out (no-op when unlimited)."""
        if self._expires is not None:
            self._expires += seconds
