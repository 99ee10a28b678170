"""Resilience primitives: atomic writes, seeded retries and shared deadlines.

The experiment service stack (daemon, job queue, chunk checkpoints,
result store) runs long campaigns that *will* be interrupted or
overloaded mid-flight.  This module holds the policies those layers use
to survive that while keeping the repo's core contract intact: **retried
runs must stay bit-identical to the fault-free serial run**, which is why
every source of retry timing randomness here is explicitly seeded and why
none of these helpers ever touches experiment randomness.

* :func:`atomic_write` — the one temp-file + ``os.replace`` write every
  durable file of that stack (result envelopes, chunk checkpoints, the
  queue journal's compaction and fsck rewrite, the daemon's endpoint
  file) goes through.
* :class:`RetryPolicy` — bounded exponential backoff whose jitter comes
  from a seeded generator, so two replays of the same failing run sleep
  the same schedule (reproducible logs, reproducible tests).
* :class:`Deadline` — a monotonic time budget a daemon job carries down
  to its chunk boundaries (``remaining()`` shrinks as work proceeds).
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

from repro.testing import chaos


class ChaosWriteError(OSError):
    """A torn write injected by the cooperative ``partial_write`` chaos kind."""


def atomic_write(path: Path, data: bytes, point: Optional[str] = None) -> None:
    """Write ``data`` to ``path`` atomically: ``<name>.tmp``, then ``os.replace``.

    A crash — or a fault injected at the chaos ``point`` — can strand the
    ``.tmp`` file but never leaves a truncated or half-old file at
    ``path``: readers see either the previous complete file or the new
    one.  At ``point`` the cooperative ``partial_write`` kind writes half
    of ``data`` to the temp file and raises :class:`ChaosWriteError`,
    modelling a torn write; ``corrupt`` flips one bit of ``data`` and
    completes the replace *silently* — the disk-rot/bad-RAM failure only
    the file's checksum can catch.  With ``point=None`` nothing is
    injectable.
    """
    tmp = path.with_name(path.name + ".tmp")
    action = None if point is None else chaos.fault_point(point)
    if action == "partial_write":
        tmp.write_bytes(data[: max(1, len(data) // 2)])
        raise ChaosWriteError(f"chaos[{point}]: write torn after {len(data) // 2} bytes")
    if action == "corrupt":
        data = chaos.corrupt_bytes(data, point)
    tmp.write_bytes(data)
    os.replace(tmp, path)


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
