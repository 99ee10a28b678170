"""A stateful DRAM bank with read-disturbance physics.

The bank stores the current value of every bit cell plus two per-row
*disturbance accumulators*:

* ``hammer_accumulator`` — how many aggressor activations each row has been
  exposed to since it was last refreshed (the quantity RowHammer drives up);
* ``press_accumulator`` — for how many cycles an adjacent row has been held
  open since the last refresh (the quantity RowPress drives up).

When an accumulator exceeds the per-cell threshold of a vulnerable cell *and*
the cell's value differs from the adjacent aggressor row *and* the cell's
preferred flip direction matches its current value, the cell flips.  A
refresh (REF or NRR) restores full charge, which is modelled by resetting the
accumulators — it does not undo flips that already happened, matching real
DRAM behaviour.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.dram.cells import CellFlip
from repro.dram.geometry import DramGeometry
from repro.dram.vulnerability import BankVulnerabilityMap, FlipDirection
from repro.utils.validation import check_engine


class DramBank:
    """One bank of the simulated chip.

    ``engine`` selects the flip-evaluation implementation:

    * ``"compiled"`` (default) — derives the flips of an entire victim-row
      set with one boolean-masked compare over the vulnerability threshold
      arrays; :class:`~repro.dram.cells.CellFlip` objects are materialized
      only at the API boundary.
    * ``"reference"`` — the original per-victim-row Python loop, retained
      for the golden-equivalence tests and perf benchmarks.  Both engines
      produce identical flips in identical order for :meth:`hammer` and
      :meth:`press`; :meth:`press_many` additionally orders its result by
      victim row.
    """

    def __init__(
        self,
        index: int,
        geometry: DramGeometry,
        vulnerability: BankVulnerabilityMap,
        engine: str = "compiled",
    ):
        check_engine(engine)
        self.index = index
        self.geometry = geometry
        self.vulnerability = vulnerability
        self.engine = engine
        self.data = np.zeros((geometry.rows_per_bank, geometry.cols_per_row), dtype=np.uint8)
        self.hammer_accumulator = np.zeros(geometry.rows_per_bank, dtype=np.float64)
        self.press_accumulator = np.zeros(geometry.rows_per_bank, dtype=np.float64)
        self.activation_counts = np.zeros(geometry.rows_per_bank, dtype=np.int64)

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------
    def write_row(self, row: int, bits: np.ndarray) -> None:
        """Store ``bits`` into ``row`` (also refreshes the row's charge)."""
        self.geometry.validate_row(row)
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.shape != (self.geometry.cols_per_row,):
            raise ValueError(
                f"row data must have shape ({self.geometry.cols_per_row},), got {bits.shape}"
            )
        if bits.max() > 1:  # uint8, so this is exactly "not all 0/1"
            raise ValueError("row data must contain only 0/1 values")
        self.data[row] = bits
        self.refresh_row(row)

    def read_row(self, row: int) -> np.ndarray:
        """Return a copy of the bits currently stored in ``row``."""
        self.geometry.validate_row(row)
        return self.data[row].copy()

    def write_bit(self, row: int, col: int, value: int) -> None:
        """Store a single bit (used when placing DNN weight bits)."""
        self.geometry.validate_row(row)
        self.geometry.validate_col(col)
        if value not in (0, 1):
            raise ValueError(f"bit value must be 0 or 1, got {value!r}")
        self.data[row, col] = value

    def read_bit(self, row: int, col: int) -> int:
        """Return a single stored bit."""
        self.geometry.validate_row(row)
        self.geometry.validate_col(col)
        return int(self.data[row, col])

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------
    def refresh_row(self, row: int) -> None:
        """Restore full charge on ``row`` (REF / NRR): reset accumulators."""
        self.geometry.validate_row(row)
        self.hammer_accumulator[row] = 0.0
        self.press_accumulator[row] = 0.0

    def refresh_all(self) -> None:
        """Chip-wide refresh: reset every row's disturbance accumulators."""
        self.hammer_accumulator[:] = 0.0
        self.press_accumulator[:] = 0.0

    # ------------------------------------------------------------------
    # Read-disturbance physics
    # ------------------------------------------------------------------
    def hammer(self, aggressor_rows: Sequence[int], hammer_count: int) -> List[CellFlip]:
        """Expose the neighbours of ``aggressor_rows`` to ``hammer_count`` ACTs.

        Returns the list of cells that flipped as a result.  The aggressor
        rows themselves are unaffected (their data is actively driven), and
        the activation counters of the aggressors are incremented so that
        attached defenses can observe them.
        """
        if hammer_count < 0:
            raise ValueError(f"hammer_count must be >= 0, got {hammer_count}")
        aggressors = set()
        for row in aggressor_rows:
            self.geometry.validate_row(row)
            aggressors.add(row)
            self.activation_counts[row] += hammer_count
        victims = self._victim_rows(aggressors)
        if self.engine == "reference":
            flips: List[CellFlip] = []
            for victim in victims:
                self.hammer_accumulator[victim] += hammer_count
                flips.extend(self._evaluate_row_flips(victim, aggressors, mechanism="rowhammer"))
            return flips
        victim_arr = np.asarray(victims, dtype=np.int64)
        if victim_arr.size:
            self.hammer_accumulator[victim_arr] += hammer_count
        return self._evaluate_bank_flips(victim_arr, aggressors, mechanism="rowhammer")

    def press(self, pressed_row: int, open_cycles: int) -> List[CellFlip]:
        """Keep ``pressed_row`` open for ``open_cycles`` and disturb neighbours.

        In the paper's RowPress variant (Section V-B) the attacker directly
        opens the target row for a long window; the adjacent "pattern" rows
        accumulate disturbance and may flip.  Only a single activation is
        involved, which is why activation-counting defenses never notice.
        """
        if open_cycles < 0:
            raise ValueError(f"open_cycles must be >= 0, got {open_cycles}")
        self.geometry.validate_row(pressed_row)
        self.activation_counts[pressed_row] += 1
        victims = self.geometry.neighbours(pressed_row)
        if self.engine == "reference":
            flips: List[CellFlip] = []
            for victim in victims:
                self.press_accumulator[victim] += open_cycles
                flips.extend(
                    self._evaluate_row_flips(victim, {pressed_row}, mechanism="rowpress")
                )
            return flips
        victim_arr = np.asarray(victims, dtype=np.int64)
        if victim_arr.size:
            self.press_accumulator[victim_arr] += open_cycles
        return self._evaluate_bank_flips(victim_arr, {pressed_row}, mechanism="rowpress")

    def press_many(self, pressed_rows: Sequence[int], open_cycles: int) -> List[CellFlip]:
        """Press a whole set of rows for ``open_cycles`` each.

        Equivalent to calling :meth:`press` once per row (up to the order of
        the returned list, which follows victim rows ascending).  Pressed
        rows must be at least three rows apart — rows closer than that share
        victim rows or press each other, and the batched evaluation would
        silently diverge from the sequential physics; the spacing is
        enforced.  The budget sweeps' row layout satisfies it by
        construction.  The disturbance accumulation and the flip evaluation
        for all victim rows happen in single array operations.
        """
        if open_cycles < 0:
            raise ValueError(f"open_cycles must be >= 0, got {open_cycles}")
        pressed = []
        for row in pressed_rows:
            self.geometry.validate_row(row)
            pressed.append(row)
        if not pressed:
            return []
        ordered = sorted(pressed)
        for lower, upper in zip(ordered, ordered[1:]):
            if upper - lower < 3:
                raise ValueError(
                    f"pressed rows {lower} and {upper} are closer than 3 rows; "
                    "batched pressing requires non-interacting pressed rows"
                )
        if self.engine == "reference":
            flips: List[CellFlip] = []
            for row in pressed:
                flips.extend(self.press(row, open_cycles))
            return flips
        self.activation_counts[np.asarray(pressed, dtype=np.int64)] += 1
        neighbour_lists = [self.geometry.neighbours(row) for row in pressed]
        all_neighbours = np.asarray(
            [victim for neighbours in neighbour_lists for victim in neighbours], dtype=np.int64
        )
        # np.add.at keeps multiplicity for victims shared between pressed rows.
        np.add.at(self.press_accumulator, all_neighbours, open_cycles)
        victim_arr = np.unique(all_neighbours)
        return self._evaluate_bank_flips(victim_arr, set(pressed), mechanism="rowpress")

    def evaluate_flips(
        self, victims: Sequence[int], aggressors: Iterable[int], mechanism: str
    ) -> List[CellFlip]:
        """Evaluate flips for an already-accumulated victim-row set.

        Public entry point for callers (the command-timeline engine) that
        manage the disturbance accumulators themselves and only need the
        flip evaluation step.  ``victims`` must be sorted ascending; the
        result is ordered like :meth:`hammer` (victim rows ascending, cells
        in vulnerability-array order), on both engines.
        """
        aggressors = set(int(row) for row in aggressors)
        if self.engine == "reference":
            flips: List[CellFlip] = []
            for victim in victims:
                flips.extend(self._evaluate_row_flips(int(victim), aggressors, mechanism))
            return flips
        return self._evaluate_bank_flips(
            np.asarray(victims, dtype=np.int64), aggressors, mechanism
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _victim_rows(self, aggressors: Iterable[int]) -> List[int]:
        victims = set()
        for row in aggressors:
            for neighbour in self.geometry.neighbours(row):
                if neighbour not in aggressors:
                    victims.add(neighbour)
        return sorted(victims)

    def _adjacent_aggressors(self, victim: int, aggressors: Iterable[int]) -> List[int]:
        return [row for row in self.geometry.neighbours(victim) if row in set(aggressors)]

    def _evaluate_row_flips(
        self, victim: int, aggressors: Iterable[int], mechanism: str
    ) -> List[CellFlip]:
        adjacent = self._adjacent_aggressors(victim, aggressors)
        if not adjacent:
            return []
        vuln = self.vulnerability
        _, all_cols, all_thresholds, all_directions = vuln.arrays_for(mechanism)
        if mechanism == "rowhammer":
            cell_indices = vuln.rh_cells_in_row(victim)
            accumulated = self.hammer_accumulator[victim]
        else:
            cell_indices = vuln.rp_cells_in_row(victim)
            accumulated = self.press_accumulator[victim]
        cols = all_cols[cell_indices]
        thresholds = all_thresholds[cell_indices]
        directions = all_directions[cell_indices]

        if cols.size == 0:
            return []

        over_threshold = thresholds <= accumulated
        if not over_threshold.any():
            return []

        victim_bits = self.data[victim, cols]
        differs = np.zeros(cols.size, dtype=bool)
        for aggressor in adjacent:
            differs |= self.data[aggressor, cols] != victim_bits
        # direction == 1 encodes ONE_TO_ZERO (cell must currently hold 1).
        direction_ok = np.where(directions == 1, victim_bits == 1, victim_bits == 0)

        flip_mask = over_threshold & differs & direction_ok
        flip_positions = np.nonzero(flip_mask)[0]
        flips: List[CellFlip] = []
        for position in flip_positions:
            col = int(cols[position])
            before = int(self.data[victim, col])
            after = 1 - before
            self.data[victim, col] = after
            flips.append(
                CellFlip(
                    bank=self.index,
                    row=victim,
                    col=col,
                    before=before,
                    after=after,
                    mechanism=mechanism,
                )
            )
        return flips

    def _evaluate_bank_flips(
        self, victims: np.ndarray, aggressors: Iterable[int], mechanism: str
    ) -> List[CellFlip]:
        """Derive the flips of an entire victim-row set in one masked compare.

        ``victims`` must be sorted ascending; the emitted flips are then
        ordered exactly like the reference per-row loop (victim rows
        ascending, cells in vulnerability-array order within a row).
        """
        vuln = self.vulnerability
        all_rows, all_cols, all_thresholds, all_directions = vuln.arrays_for(mechanism)
        cell_indices = vuln.cells_in_rows(mechanism, victims)
        accumulator = (
            self.hammer_accumulator if mechanism == "rowhammer" else self.press_accumulator
        )

        if cell_indices.size == 0:
            return []
        rows = all_rows[cell_indices]
        cols = all_cols[cell_indices]

        over_threshold = all_thresholds[cell_indices] <= accumulator[rows]
        if not over_threshold.any():
            return []

        flip_mask = over_threshold & self._eligibility_mask(
            rows, cols, all_directions[cell_indices], aggressors
        )
        positions = np.nonzero(flip_mask)[0]
        if positions.size == 0:
            return []
        flip_rows = rows[positions]
        flip_cols = cols[positions]
        before = self.data[flip_rows, flip_cols]
        after = 1 - before
        self.data[flip_rows, flip_cols] = after
        bank = self.index
        return [
            CellFlip(
                bank=bank,
                row=int(row),
                col=int(col),
                before=int(b),
                after=int(a),
                mechanism=mechanism,
            )
            for row, col, b, a in zip(flip_rows, flip_cols, before, after)
        ]

    def _eligibility_mask(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        directions: np.ndarray,
        aggressors: Iterable[int],
    ) -> np.ndarray:
        """Which cells the stored data pattern and flip direction allow to flip.

        A cell is eligible when an adjacent aggressor row stores the
        opposite value (``differs``) and the cell currently holds the value
        its preferred flip direction consumes.  Shared by the stateful flip
        evaluation (:meth:`_evaluate_bank_flips`, which additionally gates
        on the disturbance accumulator) and the static threshold view
        (:meth:`flip_thresholds`), so the eligibility physics exists once.
        """
        is_aggressor = np.zeros(self.geometry.rows_per_bank, dtype=bool)
        is_aggressor[list(aggressors)] = True
        victim_bits = self.data[rows, cols]
        differs = np.zeros(rows.size, dtype=bool)
        for offset in (-1, 1):
            neighbour = rows + offset
            valid = (neighbour >= 0) & (neighbour < self.geometry.rows_per_bank)
            neighbour_safe = np.where(valid, neighbour, 0)
            adjacent = valid & is_aggressor[neighbour_safe]
            differs |= adjacent & (self.data[neighbour_safe, cols] != victim_bits)
        # direction == 1 encodes ONE_TO_ZERO (cell must currently hold 1).
        direction_ok = np.where(directions == 1, victim_bits == 1, victim_bits == 0)
        return differs & direction_ok

    def flip_thresholds(
        self, victims: np.ndarray, aggressors: Iterable[int], mechanism: str
    ) -> np.ndarray:
        """Disturbance thresholds of every cell that would eventually flip.

        Static counterpart of :meth:`_evaluate_bank_flips`: applies the same
        eligibility mask to the vulnerable cells of the (sorted) ``victims``
        rows against the *currently stored* data, but instead of flipping
        anything it returns the vulnerability thresholds of the cells that
        pass.  Since a cell flips at the first moment its row's accumulator
        reaches its threshold — and a flipped cell can never flip again
        (its direction precondition now fails) — the cumulative flip count
        of any monotone disturbance schedule is simply
        ``count(threshold <= accumulated)``.  The budget sweeps
        (:mod:`repro.faults.sweep`) use this to evaluate every budget step
        of a flip curve in one pass.
        """
        vuln = self.vulnerability
        all_rows, all_cols, all_thresholds, all_directions = vuln.arrays_for(mechanism)
        victims = np.asarray(victims, dtype=np.int64)
        cell_indices = vuln.cells_in_rows(mechanism, victims)
        if cell_indices.size == 0:
            return np.empty(0, dtype=all_thresholds.dtype)
        mask = self._eligibility_mask(
            all_rows[cell_indices],
            all_cols[cell_indices],
            all_directions[cell_indices],
            aggressors,
        )
        return all_thresholds[cell_indices][mask]

    def vulnerable_cell_direction(self, mechanism: str, row: int, col: int) -> Optional[FlipDirection]:
        """Return the preferred flip direction of a vulnerable cell, if any."""
        rows, cols, _, directions = self.vulnerability.arrays_for(mechanism)
        matches = np.nonzero((rows == row) & (cols == col))[0]
        if matches.size == 0:
            return None
        return FlipDirection.ONE_TO_ZERO if directions[matches[0]] == 1 else FlipDirection.ZERO_TO_ONE
