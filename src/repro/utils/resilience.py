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
* :class:`Deadline` — a monotonic time budget a daemon job carries down
  to its chunk boundaries (``remaining()`` shrinks as work proceeds).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Iterator


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


class Deadline:
    """A monotonic time budget shared across nested operations.

    ``Deadline(5.0)`` expires five seconds after construction.  The clock
    is injectable for deterministic tests.
    """

    def __init__(self, seconds: float, clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self.seconds = seconds
        self._expires = clock() + seconds

    def remaining(self) -> float:
        """Seconds left (clamped to 0)."""
        return max(0.0, self._expires - self._clock())

    def expired(self) -> bool:
        """Whether the budget is spent."""
        return self._clock() >= self._expires

    def check(self, label: str = "operation") -> None:
        """Raise :class:`DeadlineExceeded` when the budget is spent."""
        if self.expired():
            raise DeadlineExceeded(f"{label} exceeded its {self.seconds:.1f}s deadline")
