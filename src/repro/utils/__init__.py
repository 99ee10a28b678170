"""Shared utilities: seeded RNG management, unit conversions and validation.

These helpers are deliberately small and dependency-free so that every other
subpackage (:mod:`repro.dram`, :mod:`repro.faults`, :mod:`repro.nn`,
:mod:`repro.core`) can rely on them without creating import cycles.  The one
in-package import, :mod:`repro.testing.chaos` (for the fault point of
:func:`~repro.utils.resilience.atomic_write`), imports nothing from ``repro``.
"""

from repro.utils.resilience import Deadline, DeadlineExceeded, RetryPolicy
from repro.utils.rng import RngMixin, derive_rng, spawn_seeds
from repro.utils.units import (
    CYCLES_PER_MS_DDR4_2400,
    cycles_to_ms,
    cycles_to_seconds,
    hammer_counts_to_time_ms,
    ms_to_cycles,
    rowpress_cycles_to_equivalent_hammer_counts,
    time_ms_to_hammer_counts,
)
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "Deadline",
    "DeadlineExceeded",
    "RetryPolicy",
    "RngMixin",
    "derive_rng",
    "spawn_seeds",
    "CYCLES_PER_MS_DDR4_2400",
    "cycles_to_ms",
    "cycles_to_seconds",
    "ms_to_cycles",
    "hammer_counts_to_time_ms",
    "time_ms_to_hammer_counts",
    "rowpress_cycles_to_equivalent_hammer_counts",
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_in_range",
]
