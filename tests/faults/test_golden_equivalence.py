"""Golden-equivalence tests: compiled fault engine vs the loop reference.

The compiled DRAM fault engine (whole-bank masked compares in
:class:`~repro.dram.bank.DramBank`, the bank-sweep profiler and the batched
budget sweeps) must reproduce the retained reference implementations
flip-for-flip.  These tests pin that contract across seeds, geometries,
strides and data patterns.
"""

import numpy as np
import pytest

from repro.dram.bank import DramBank
from repro.dram.chip import DramChip
from repro.dram.controller import MemoryController
from repro.dram.geometry import DramGeometry
from repro.dram.vulnerability import VulnerabilityParameters
from repro.faults.profiler import ChipProfiler, ProfilingConfig
from repro.faults.sweep import rowhammer_flip_curve, rowpress_flip_curve

DENSE = VulnerabilityParameters(rh_density=0.05, rp_density=0.2)
GEOMETRY = DramGeometry(num_banks=2, rows_per_bank=48, cols_per_row=256)


def flip_tuples(flips):
    return [(f.bank, f.row, f.col, f.before, f.after, f.mechanism) for f in flips]


def make_bank_pair(seed):
    """Two banks with identical vulnerability maps but different engines."""
    reference_chip = DramChip(GEOMETRY, vulnerability_parameters=DENSE, seed=seed,
                              engine="reference")
    compiled_chip = DramChip(GEOMETRY, vulnerability_parameters=DENSE, seed=seed)
    return reference_chip.bank(0), compiled_chip.bank(0)


class TestBankEngineEquivalence:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_hammer_sequences_identical(self, seed):
        reference, compiled = make_bank_pair(seed)
        rng = np.random.default_rng(seed)
        for bank in (reference, compiled):
            for row in range(GEOMETRY.rows_per_bank):
                bank.write_row(row, (np.arange(GEOMETRY.cols_per_row) + row) % 2)
        for _ in range(20):
            victim = int(rng.integers(1, GEOMETRY.rows_per_bank - 1))
            aggressors = [victim - 1, victim + 1]
            count = int(rng.integers(10_000, 400_000))
            ref_flips = reference.hammer(aggressors, count)
            vec_flips = compiled.hammer(aggressors, count)
            assert flip_tuples(ref_flips) == flip_tuples(vec_flips)
        assert np.array_equal(reference.data, compiled.data)
        assert np.array_equal(reference.hammer_accumulator, compiled.hammer_accumulator)

    @pytest.mark.parametrize("seed", [1, 5])
    def test_press_sequences_identical(self, seed):
        reference, compiled = make_bank_pair(seed)
        rng = np.random.default_rng(seed)
        for bank in (reference, compiled):
            for row in range(GEOMETRY.rows_per_bank):
                bank.write_row(row, np.full(GEOMETRY.cols_per_row, row % 2, dtype=np.uint8))
        for _ in range(20):
            row = int(rng.integers(0, GEOMETRY.rows_per_bank))
            cycles = int(rng.integers(100_000, 80_000_000))
            assert flip_tuples(reference.press(row, cycles)) == flip_tuples(
                compiled.press(row, cycles)
            )
        assert np.array_equal(reference.data, compiled.data)
        assert np.array_equal(reference.press_accumulator, compiled.press_accumulator)

    def test_press_many_matches_sequential_presses(self):
        reference, compiled = make_bank_pair(9)
        for bank in (reference, compiled):
            for row in range(GEOMETRY.rows_per_bank):
                bank.write_row(row, np.full(GEOMETRY.cols_per_row, 1, dtype=np.uint8))
        pressed = list(range(1, GEOMETRY.rows_per_bank - 1, 3))
        sequential = []
        for row in pressed:
            sequential.extend(reference.press(row, 50_000_000))
        batched = compiled.press_many(pressed, 50_000_000)
        # Batching reorders the returned list (victim rows ascending); the
        # flip sets and the resulting bank state are identical.
        assert sorted(flip_tuples(sequential)) == sorted(flip_tuples(batched))
        assert np.array_equal(reference.data, compiled.data)
        assert np.array_equal(reference.press_accumulator, compiled.press_accumulator)

    def test_press_rows_with_defense_matches_sequential(self):
        """With a defense attached the batch falls back to exact sequencing.

        A precharge-triggered defense can NRR-heal a victim row between two
        presses; the batched evaluation cannot interleave that healing, so
        the controller must press sequentially whenever defenses observe it.
        """
        from repro.defenses.press_aware import OpenWindowMonitorDefense

        def run(batched):
            chip = DramChip(GEOMETRY, vulnerability_parameters=DENSE, seed=3)
            controller = MemoryController(
                chip,
                defenses=[OpenWindowMonitorDefense(
                    open_cycles_threshold=4_500_000, blast_radius=2
                )],
            )
            pressed = list(range(1, GEOMETRY.rows_per_bank - 1, 3))
            for row in range(GEOMETRY.rows_per_bank):
                chip.write_row(0, row, np.full(GEOMETRY.cols_per_row, row % 2, dtype=np.uint8))
            flips = []
            for _ in range(2):
                if batched:
                    flips.extend(controller.press_rows(0, pressed, 3_000_000))
                else:
                    for row in pressed:
                        flips.extend(controller.press_row(0, row, 3_000_000))
            return flips

        assert sorted(flip_tuples(run(batched=True))) == sorted(flip_tuples(run(batched=False)))

    def test_press_many_rejects_interacting_rows(self):
        _, compiled = make_bank_pair(9)
        # Rows closer than 3 apart share victims (or press each other), where
        # batched evaluation would diverge from sequential physics.
        for rows in ([4, 5], [4, 6]):
            with pytest.raises(ValueError):
                compiled.press_many(rows, 1_000_000)

    def test_hammer_edge_rows(self):
        reference, compiled = make_bank_pair(13)
        for bank in (reference, compiled):
            bank.write_row(0, np.zeros(GEOMETRY.cols_per_row, dtype=np.uint8))
            bank.write_row(1, np.ones(GEOMETRY.cols_per_row, dtype=np.uint8))
        # Aggressor at the bank edge: the victim set has a single row.
        assert flip_tuples(reference.hammer([1], 900_000)) == flip_tuples(
            compiled.hammer([1], 900_000)
        )


class TestProfilerEquivalence:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_profiles_flip_identical(self, seed, stride):
        config = ProfilingConfig(hammer_count=400_000, open_cycles=40_000_000,
                                 row_stride=stride)
        reference = ChipProfiler(
            DramChip(GEOMETRY, seed=seed, engine="reference"), config, engine="reference"
        )
        compiled = ChipProfiler(DramChip(GEOMETRY, seed=seed), config)
        for mechanism in ("rowhammer", "rowpress"):
            assert flip_tuples(reference._run_mechanism(mechanism)) == flip_tuples(
                compiled._run_mechanism(mechanism)
            )

    def test_profile_pairs_identical(self):
        config = ProfilingConfig(hammer_count=600_000, open_cycles=60_000_000)
        reference = ChipProfiler(
            DramChip(GEOMETRY, seed=2, engine="reference"), config, engine="reference"
        ).profile()
        compiled = ChipProfiler(DramChip(GEOMETRY, seed=2), config).profile()
        for mechanism in ("rowhammer", "rowpress"):
            ref_profile = reference.profile_for(mechanism)
            vec_profile = compiled.profile_for(mechanism)
            assert np.array_equal(ref_profile.flat_indices, vec_profile.flat_indices)
            assert np.array_equal(ref_profile.directions, vec_profile.directions)

    def test_bank_restriction_respected(self):
        config = ProfilingConfig(hammer_count=600_000, open_cycles=60_000_000, banks=[1])
        reference = ChipProfiler(
            DramChip(GEOMETRY, seed=4, engine="reference"), config, engine="reference"
        )
        compiled = ChipProfiler(DramChip(GEOMETRY, seed=4), config)
        for mechanism in ("rowhammer", "rowpress"):
            ref_flips = reference._run_mechanism(mechanism)
            vec_flips = compiled._run_mechanism(mechanism)
            assert flip_tuples(ref_flips) == flip_tuples(vec_flips)
            assert all(f.bank == 1 for f in vec_flips)


class TestSweepEquivalence:
    BUDGETS_RH = [100_000, 400_000, 800_000]
    BUDGETS_RP = [10_000_000, 40_000_000, 90_000_000]

    @pytest.mark.parametrize("seed", [0, 6])
    @pytest.mark.parametrize("max_rows", [6, None])
    def test_rowhammer_curves_identical(self, seed, max_rows):
        reference = rowhammer_flip_curve(
            DramChip(GEOMETRY, vulnerability_parameters=DENSE, seed=seed, engine="reference"),
            self.BUDGETS_RH, max_rows_per_bank=max_rows, engine="reference",
        )
        compiled = rowhammer_flip_curve(
            DramChip(GEOMETRY, vulnerability_parameters=DENSE, seed=seed),
            self.BUDGETS_RH, max_rows_per_bank=max_rows,
        )
        assert np.array_equal(reference.flips, compiled.flips)
        assert np.array_equal(reference.budgets, compiled.budgets)

    @pytest.mark.parametrize("seed", [0, 6])
    @pytest.mark.parametrize("max_rows", [6, None])
    def test_rowpress_curves_identical(self, seed, max_rows):
        reference = rowpress_flip_curve(
            DramChip(GEOMETRY, vulnerability_parameters=DENSE, seed=seed, engine="reference"),
            self.BUDGETS_RP, max_rows_per_bank=max_rows, engine="reference",
        )
        compiled = rowpress_flip_curve(
            DramChip(GEOMETRY, vulnerability_parameters=DENSE, seed=seed),
            self.BUDGETS_RP, max_rows_per_bank=max_rows,
        )
        assert np.array_equal(reference.flips, compiled.flips)
