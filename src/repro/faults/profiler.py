"""Whole-chip profiling (the first stage of the attack in Section VI).

The profiler sweeps every row of the requested banks, running the
RowHammer and RowPress injectors with both data-pattern polarities so that
cells of either flip direction are exposed, and aggregates the observed
flips into a :class:`~repro.faults.profiles.ProfilePair`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.dram.cells import CellFlip
from repro.dram.chip import DramChip
from repro.dram.controller import MemoryController
from repro.faults.patterns import DataPattern, make_pattern, profiling_patterns
from repro.faults.profiles import BitFlipProfile, ProfilePair
from repro.faults.rowhammer import RowHammerAttack, RowHammerConfig
from repro.faults.rowpress import RowPressAttack, RowPressConfig
from repro.utils.validation import check_engine, check_positive


@dataclass(frozen=True)
class ProfilingConfig:
    """Budgets and coverage of a profiling campaign.

    Attributes
    ----------
    hammer_count:
        Hammer count used for the RowHammer pass on each victim row.
    open_cycles:
        Open-window duration used for the RowPress pass on each pressed row.
    banks:
        Which banks to profile (``None`` = all banks of the chip).
    row_stride:
        Profile every ``row_stride``-th row; 1 gives exhaustive coverage.
    patterns:
        The data-pattern polarities exercised per row.
    """

    hammer_count: int = 600_000
    open_cycles: int = 60_000_000
    banks: Optional[Sequence[int]] = None
    row_stride: int = 1
    patterns: Sequence[DataPattern] = field(default_factory=profiling_patterns)

    def __post_init__(self) -> None:
        check_positive("hammer_count", self.hammer_count)
        check_positive("open_cycles", self.open_cycles)
        check_positive("row_stride", self.row_stride)


class ChipProfiler:
    """Runs the profiling campaign of Section VI on a simulated chip.

    ``engine`` selects the sweep implementation:

    * ``"compiled"`` (default) — derives each bank's flips for the whole
      row sweep with boolean-mask operations directly over the bank's
      vulnerability threshold arrays.  Exactness rests on a property of the
      per-row campaign: every run rewrites (and thereby refreshes) all rows
      it touches before disturbing them, so each observed row's flips depend
      only on the run's own budget and data pattern — never on residue from
      earlier runs.  The golden-equivalence tests assert flip-for-flip
      agreement with the reference.
    * ``"reference"`` — the original per-row attack loop through the memory
      controller, retained for golden tests and perf benchmarks.
    """

    def __init__(
        self,
        chip: DramChip,
        config: Optional[ProfilingConfig] = None,
        engine: str = "compiled",
    ):
        check_engine(engine)
        self.chip = chip
        self.config = config or ProfilingConfig()
        self.engine = engine

    def _banks(self) -> List[int]:
        if self.config.banks is not None:
            return list(self.config.banks)
        return list(range(self.chip.geometry.num_banks))

    def _victim_rows(self) -> List[int]:
        # Interior rows only: the double-sided model needs neighbours on both
        # sides, and edge rows would under-report vulnerability.
        rows = range(1, self.chip.geometry.rows_per_bank - 1, self.config.row_stride)
        return list(rows)

    # ------------------------------------------------------------------
    def profile_rowhammer(self) -> BitFlipProfile:
        """Profile the chip under RowHammer only."""
        return self._profile("rowhammer", self.config.hammer_count)

    def profile_rowpress(self) -> BitFlipProfile:
        """Profile the chip under RowPress only."""
        return self._profile("rowpress", self.config.open_cycles)

    def profile(self) -> ProfilePair:
        """Profile the chip under both mechanisms (the attacker's first step)."""
        return ProfilePair(rowhammer=self.profile_rowhammer(), rowpress=self.profile_rowpress())

    # ------------------------------------------------------------------
    def _profile(self, mechanism: str, budget: int) -> BitFlipProfile:
        geometry = self.chip.geometry
        if self.engine == "reference":
            flips = self._run_mechanism_reference(mechanism)
            return BitFlipProfile.from_flips(mechanism, flips, geometry, budget=budget)
        return BitFlipProfile.from_cells(
            mechanism, *self._run_mechanism_vectorized(mechanism), geometry, budget=budget
        )

    def _run_mechanism(self, mechanism: str) -> List[CellFlip]:
        """The observed flips as :class:`CellFlip` records, on either engine."""
        if self.engine == "reference":
            return self._run_mechanism_reference(mechanism)
        banks, rows, cols, before = self._run_mechanism_vectorized(mechanism)
        return [
            CellFlip(bank=bank, row=row, col=col, before=bit, after=1 - bit, mechanism=mechanism)
            for bank, row, col, bit in zip(
                banks.tolist(), rows.tolist(), cols.tolist(), before.tolist()
            )
        ]

    def _run_mechanism_vectorized(
        self, mechanism: str
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Whole-bank masked sweep equivalent to the per-row attack loop.

        Every per-row run writes fresh data into the observed rows (which
        also refreshes their disturbance accumulators), so a profiled cell
        flips iff its threshold is within the run budget, its stored pattern
        bit differs from the adjacent aggressor pattern bit (always true for
        the profiling patterns) and its preferred direction matches the
        stored bit.  That predicate is evaluated for every vulnerable cell
        of a bank at once.  Returns the observed flips as ``(bank, row,
        col, before)`` int64 arrays in the reference emission order; the
        profiles are built from these arrays directly, and
        :class:`~repro.dram.cells.CellFlip` records are built only by
        :meth:`_run_mechanism`, for the golden-equivalence tests.
        """
        geometry = self.chip.geometry
        config = self.config
        stride = config.row_stride
        last_interior = geometry.rows_per_bank - 2
        budget = config.hammer_count if mechanism == "rowhammer" else config.open_cycles
        # Each pressed row's run observes its two neighbours, in this order.
        pressed = np.asarray(self._victim_rows(), dtype=np.int64)
        press_observed = np.stack((pressed - 1, pressed + 1), axis=1).ravel()

        # (bank, row, col, before) chunks, each list seeded with an empty
        # int64 array so the concatenation is int64 even with no flips.
        chunks: Tuple[List[np.ndarray], ...] = tuple(
            [np.empty(0, dtype=np.int64)] for _ in range(4)
        )
        for pattern in config.patterns:
            victim_bits, aggressor_bits = make_pattern(pattern, geometry.cols_per_row)
            for bank in self._banks():
                bank_map = self.chip.vulnerability_model.bank_map(bank)
                rows, cols, thresholds, directions = bank_map.arrays_for(mechanism)
                stored = victim_bits[cols] if mechanism == "rowhammer" else aggressor_bits[cols]
                facing = aggressor_bits[cols] if mechanism == "rowhammer" else victim_bits[cols]
                feasible = (
                    (thresholds <= budget)
                    & (stored != facing)
                    & np.where(directions == 1, stored == 1, stored == 0)
                )
                if mechanism == "rowhammer":
                    # Observed exactly once: in the run whose victim row it is.
                    feasible &= (
                        (rows >= 1) & (rows <= last_interior) & ((rows - 1) % stride == 0)
                    )
                indices = np.nonzero(feasible)[0]
                indices = indices[np.lexsort((cols[indices], rows[indices]))]
                if mechanism == "rowpress":
                    # A cell in row k is observed (freshly written, disturbed
                    # and read back) once per pressed row adjacent to k, so
                    # interior rows between two pressed rows appear twice.
                    indices = indices[_row_runs(rows[indices], press_observed)]
                found = (np.full(indices.size, bank), rows[indices], cols[indices], stored[indices])
                for chunk, values in zip(chunks, found):
                    chunk.append(values)
        return tuple(np.concatenate(chunk) for chunk in chunks)

    def _run_mechanism_reference(self, mechanism: str) -> List[CellFlip]:
        flips: List[CellFlip] = []
        for pattern in self.config.patterns:
            self.chip.reset()
            controller = MemoryController(self.chip)
            for bank in self._banks():
                for row in self._victim_rows():
                    if mechanism == "rowhammer":
                        attack = RowHammerAttack(
                            controller,
                            RowHammerConfig(
                                bank=bank,
                                victim_row=row,
                                hammer_count=self.config.hammer_count,
                                pattern=pattern,
                            ),
                        )
                        result = attack.run()
                    else:
                        attack = RowPressAttack(
                            controller,
                            RowPressConfig(
                                bank=bank,
                                pressed_row=row,
                                open_cycles=self.config.open_cycles,
                                pattern=pattern,
                            ),
                        )
                        result = attack.run()
                    flips.extend(result.flips)
        return flips


def _row_runs(sorted_rows: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Positions into ``sorted_rows`` of each ``observed`` row's run, in order.

    Concatenates, for every entry of ``observed`` (repeats allowed), the
    positions holding that row — the vectorized form of slicing one run
    per observed row and joining the slices.
    """
    starts = np.searchsorted(sorted_rows, observed, side="left")
    lengths = np.searchsorted(sorted_rows, observed, side="right") - starts
    shifts = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return shifts + np.arange(int(lengths.sum()), dtype=np.int64)
