"""Attack-budget sweeps: the data behind Fig. 6 of the paper.

Fig. 6 plots the cumulative number of bit flips observed over a profiled
chip region as a function of the attack budget: hammer counts for
RowHammer (black curve, bottom/left axes) and elapsed cycles within the
open window for RowPress (red curve, top/right axes).  The sweeps below
reproduce both curves on the simulated chip, using both data-pattern
polarities per victim row so cells of either flip direction are counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.dram.chip import DramChip
from repro.dram.controller import MemoryController
from repro.faults.patterns import DataPattern, make_pattern, profiling_patterns
from repro.utils.units import (
    hammer_counts_to_time_ms,
    rowpress_cycles_to_equivalent_hammer_counts,
)
from repro.utils.validation import check_engine, check_positive


@dataclass
class FlipCurve:
    """Cumulative flip counts as a function of attack budget.

    ``budgets`` holds hammer counts for RowHammer curves and open-window
    cycles for RowPress curves; ``flips`` holds the cumulative number of
    distinct cells observed flipped at each budget.
    """

    mechanism: str
    budgets: np.ndarray
    flips: np.ndarray
    rows_tested: int = 0

    def __post_init__(self) -> None:
        self.budgets = np.asarray(self.budgets, dtype=np.float64)
        self.flips = np.asarray(self.flips, dtype=np.int64)
        if self.budgets.shape != self.flips.shape:
            raise ValueError("budgets and flips must have the same shape")

    @property
    def final_flips(self) -> int:
        """Flip count at the largest budget."""
        return int(self.flips[-1]) if self.flips.size else 0

    def time_axis_ms(self, timings=None) -> np.ndarray:
        """Convert the budget axis to milliseconds for fair comparison."""
        if self.mechanism == "rowhammer":
            return np.array([hammer_counts_to_time_ms(b) for b in self.budgets])
        if timings is not None:
            return np.array([timings.cycles_to_ms(b) for b in self.budgets])
        from repro.utils.units import cycles_to_ms

        return np.array([cycles_to_ms(b) for b in self.budgets])

    def flips_at_time_ms(self, time_ms: float, timings=None) -> int:
        """Cumulative flips at (or just below) a wall-clock time."""
        times = self.time_axis_ms(timings)
        eligible = np.nonzero(times <= time_ms + 1e-9)[0]
        if eligible.size == 0:
            return 0
        return int(self.flips[eligible[-1]])

    def is_monotonic(self) -> bool:
        """Flip counts never decrease with budget."""
        return bool(np.all(np.diff(self.flips) >= 0))

    def to_dict(self) -> dict:
        """JSON-serialisable representation for reports."""
        return {
            "mechanism": self.mechanism,
            "budgets": self.budgets.tolist(),
            "flips": self.flips.tolist(),
            "rows_tested": self.rows_tested,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FlipCurve":
        """Rebuild a curve from :meth:`to_dict` output."""
        return cls(
            mechanism=payload["mechanism"],
            budgets=np.asarray(payload["budgets"], dtype=np.float64),
            flips=np.asarray(payload["flips"], dtype=np.int64),
            rows_tested=int(payload.get("rows_tested", 0)),
        )


def _victim_rows(chip: DramChip, max_rows: Optional[int]) -> List[int]:
    # Victim rows are spaced at least 3 apart so that one iteration's victim
    # row is never another iteration's aggressor/pattern row: all rows are
    # written once up front and must keep their assigned polarity for the
    # whole sweep.
    rows = list(range(1, chip.geometry.rows_per_bank - 1, 3))
    if max_rows is not None and len(rows) > max_rows:
        stride = max(1, len(rows) // max_rows)
        rows = rows[::stride][:max_rows]
    return rows


def _one_pass_flip_counts(
    chip: DramChip,
    banks: Sequence[int],
    victim_rows: Sequence[int],
    aggressors: set,
    mechanism: str,
    budgets: Sequence[int],
) -> np.ndarray:
    """Cumulative flips at every budget step, evaluated in one pass.

    A cell flips at the first budget step whose accumulated disturbance
    reaches its threshold (and never again — the flip direction
    precondition fails afterwards), so the cumulative count at budget ``b``
    is the number of eligible cells with ``threshold <= b``.  One
    ``searchsorted`` per bank therefore evaluates *all* budget steps of the
    curve at once — no per-step controller calls, no chip mutation.
    """
    budget_array = np.asarray(budgets, dtype=np.float64)
    counts = np.zeros(budget_array.size, dtype=np.int64)
    victims = np.asarray(sorted(victim_rows), dtype=np.int64)
    for bank in banks:
        thresholds = chip.bank(bank).flip_thresholds(victims, aggressors, mechanism)
        counts += np.searchsorted(np.sort(thresholds), budget_array, side="right")
    return counts


def rowhammer_flip_curve(
    chip: DramChip,
    hammer_counts: Sequence[int],
    banks: Optional[Sequence[int]] = None,
    max_rows_per_bank: Optional[int] = 32,
    patterns: Optional[Sequence[DataPattern]] = None,
    engine: str = "compiled",
) -> FlipCurve:
    """Cumulative RowHammer flips over the chip as hammer count grows.

    The default ``"compiled"`` engine evaluates **all budget steps in one
    pass**: per bank it collects the thresholds of the cells whose data
    pattern and flip direction allow a flip under the written layout
    (:meth:`repro.dram.bank.DramBank.flip_thresholds`) and reads the whole
    cumulative curve off one ``searchsorted``.  This is exact because the
    per-step disturbance deltas sum to the budget and a flipped cell can
    never flip back; the retained ``"reference"`` per-row per-step loop
    pins the equivalence in the golden tests.

    The golden contract covers the returned curve, not the chip: the
    one-pass engine never hammers, so it leaves the written data and the
    disturbance accumulators untouched, while the reference loop mutates
    them as it always did.  Callers that inspect the chip after a sweep
    must use the reference engine (or ``chip.reset()`` first).
    """
    check_engine(engine)
    budgets = sorted(set(int(h) for h in hammer_counts))
    if not budgets:
        raise ValueError("hammer_counts must not be empty")
    for budget in budgets:
        check_positive("hammer_count", budget)
    banks = list(banks) if banks is not None else list(range(chip.geometry.num_banks))
    patterns = list(patterns) if patterns is not None else list(profiling_patterns())
    rows = _victim_rows(chip, max_rows_per_bank)
    aggressor_union = sorted(
        {neighbour for row in rows for neighbour in chip.geometry.neighbours(row)}
    )
    # Rows the union hammering disturbs: every neighbour of an aggressor
    # that is not itself actively driven (mirrors DramBank._victim_rows).
    union_victims = sorted(
        {
            neighbour
            for row in aggressor_union
            for neighbour in chip.geometry.neighbours(row)
        }
        - set(aggressor_union)
    )

    cumulative = np.zeros(len(budgets), dtype=np.int64)
    for pattern in patterns:
        chip.reset()
        victim_bits, aggressor_bits = make_pattern(pattern, chip.geometry.cols_per_row)
        for bank in banks:
            for row in rows:
                chip.write_row(bank, row, victim_bits)
                for neighbour in chip.geometry.neighbours(row):
                    chip.write_row(bank, neighbour, aggressor_bits)
        if engine != "reference":
            cumulative += _one_pass_flip_counts(
                chip, banks, union_victims, set(aggressor_union), "rowhammer", budgets
            )
            continue
        controller = MemoryController(chip)
        previous = 0
        flipped_so_far = 0
        for index, budget in enumerate(budgets):
            delta = budget - previous
            previous = budget
            for bank in banks:
                for row in rows:
                    aggressors = list(chip.geometry.neighbours(row))
                    flips = controller.hammer_rows(bank, aggressors, delta)
                    flipped_so_far += len(flips)
            cumulative[index] += flipped_so_far
    return FlipCurve(
        mechanism="rowhammer",
        budgets=np.asarray(budgets, dtype=np.float64),
        flips=cumulative,
        rows_tested=len(rows) * len(banks),
    )


def rowpress_flip_curve(
    chip: DramChip,
    open_cycles: Sequence[int],
    banks: Optional[Sequence[int]] = None,
    max_rows_per_bank: Optional[int] = 32,
    patterns: Optional[Sequence[DataPattern]] = None,
    engine: str = "compiled",
) -> FlipCurve:
    """Cumulative RowPress flips over the chip as the open window grows.

    The default ``"compiled"`` engine evaluates all budget steps in one
    pass, exactly like :func:`rowhammer_flip_curve`: the open windows of a
    budget (split at ``tREFW``) accumulate additively on the pressed rows'
    neighbours, so the curve is one threshold ``searchsorted`` per bank.
    The ``"reference"`` per-row per-window loop is retained for
    golden-equivalence testing.  As with :func:`rowhammer_flip_curve`, the
    one-pass engine does not mutate the chip; only the reference loop
    leaves flipped cells and advanced accumulators behind.
    """
    check_engine(engine)
    budgets = sorted(set(int(c) for c in open_cycles))
    if not budgets:
        raise ValueError("open_cycles must not be empty")
    for budget in budgets:
        check_positive("open_cycles", budget)
    banks = list(banks) if banks is not None else list(range(chip.geometry.num_banks))
    patterns = list(patterns) if patterns is not None else list(profiling_patterns())
    rows = _victim_rows(chip, max_rows_per_bank)
    max_window = chip.timings.max_open_window_cycles()
    press_victims = sorted(
        {neighbour for row in rows for neighbour in chip.geometry.neighbours(row)}
    )

    cumulative = np.zeros(len(budgets), dtype=np.int64)
    for pattern in patterns:
        chip.reset()
        pressed_bits, pattern_bits = make_pattern(pattern, chip.geometry.cols_per_row)
        for bank in banks:
            for row in rows:
                chip.write_row(bank, row, pressed_bits)
                for neighbour in chip.geometry.neighbours(row):
                    chip.write_row(bank, neighbour, pattern_bits)
        if engine != "reference":
            cumulative += _one_pass_flip_counts(
                chip, banks, press_victims, set(rows), "rowpress", budgets
            )
            continue
        controller = MemoryController(chip)
        previous = 0
        flipped_so_far = 0
        for index, budget in enumerate(budgets):
            delta = budget - previous
            previous = budget
            for bank in banks:
                for row in rows:
                    remaining = delta
                    while remaining > 0:
                        window = min(remaining, max_window)
                        flips = controller.press_row(bank, row, window)
                        flipped_so_far += len(flips)
                        remaining -= window
            cumulative[index] += flipped_so_far
    return FlipCurve(
        mechanism="rowpress",
        budgets=np.asarray(budgets, dtype=np.float64),
        flips=cumulative,
        rows_tested=len(rows) * len(banks),
    )


def equal_time_comparison(
    rowhammer_curve: FlipCurve,
    rowpress_curve: FlipCurve,
    timings=None,
) -> Dict[str, float]:
    """Takeaway-1 analysis: compare flips produced in equal wall-clock time.

    The comparison point is the largest time covered by *both* curves; the
    ratio ``rowpress_flips / rowhammer_flips`` at that point is the number
    the paper reports as "up to 20x more bit flips".
    """
    rh_times = rowhammer_curve.time_axis_ms(timings)
    rp_times = rowpress_curve.time_axis_ms(timings)
    comparison_time = min(rh_times[-1], rp_times[-1])
    rh_flips = rowhammer_curve.flips_at_time_ms(comparison_time, timings)
    rp_flips = rowpress_curve.flips_at_time_ms(comparison_time, timings)
    equivalent_hc = rowpress_cycles_to_equivalent_hammer_counts(rowpress_curve.budgets[-1])
    return {
        "comparison_time_ms": float(comparison_time),
        "rowhammer_flips": float(rh_flips),
        "rowpress_flips": float(rp_flips),
        "rowpress_to_rowhammer_ratio": float(rp_flips) / rh_flips if rh_flips else float("inf"),
        "rowpress_budget_equivalent_hammer_counts": float(equivalent_hc),
    }
