"""Tests for bank-level data storage and read-disturbance physics."""

import numpy as np
import pytest

from repro.dram.bank import DramBank
from repro.dram.geometry import DramGeometry
from repro.dram.vulnerability import BankVulnerabilityMap, CellVulnerabilityModel, VulnerabilityParameters


def make_manual_bank():
    """Bank with a hand-built vulnerability map for deterministic physics tests.

    Row 5 has two RowHammer-vulnerable cells (cols 3 and 10) and row 7 / 9
    have RowPress-vulnerable cells (cols 1 and 2).
    """
    geometry = DramGeometry(num_banks=1, rows_per_bank=16, cols_per_row=32)
    vulnerability = BankVulnerabilityMap(
        bank=0,
        rh_rows=np.array([5, 5]),
        rh_cols=np.array([3, 10]),
        rh_thresholds=np.array([10_000.0, 50_000.0]),
        rh_directions=np.array([0, 1], dtype=np.int8),  # 0->1 and 1->0
        rp_rows=np.array([7, 9]),
        rp_cols=np.array([1, 2]),
        rp_thresholds=np.array([1_000_000.0, 5_000_000.0]),
        rp_directions=np.array([0, 0], dtype=np.int8),
        )
    return DramBank(0, geometry, vulnerability)


class TestDataAccess:
    def test_write_read_row(self):
        bank = make_manual_bank()
        row = np.ones(32, dtype=np.uint8)
        bank.write_row(4, row)
        assert np.array_equal(bank.read_row(4), row)

    def test_write_row_validates_shape_and_values(self):
        bank = make_manual_bank()
        with pytest.raises(ValueError):
            bank.write_row(0, np.ones(5, dtype=np.uint8))
        with pytest.raises(ValueError):
            bank.write_row(0, np.full(32, 2, dtype=np.uint8))

    @pytest.mark.parametrize("bad", [2, 255])
    def test_write_row_rejects_one_non_bit_value(self, bad):
        bank = make_manual_bank()
        row = np.zeros(32, dtype=np.uint8)
        row[17] = bad
        with pytest.raises(ValueError, match="only 0/1"):
            bank.write_row(0, row)
        assert not bank.read_row(0).any()

    def test_write_row_rejects_wrong_shape(self):
        bank = make_manual_bank()
        with pytest.raises(ValueError, match="shape"):
            bank.write_row(0, np.zeros((2, 16), dtype=np.uint8))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, bool])
    def test_write_row_accepts_bit_rows(self, dtype):
        bank = make_manual_bank()
        bits = (np.arange(32) % 3 == 0).astype(dtype)
        bank.write_row(2, bits)
        assert np.array_equal(bank.read_row(2), bits.astype(np.uint8))
        bank.write_row(3, np.zeros(32, dtype=dtype))
        assert not bank.read_row(3).any()

    def test_bit_access(self):
        bank = make_manual_bank()
        bank.write_bit(3, 7, 1)
        assert bank.read_bit(3, 7) == 1
        with pytest.raises(ValueError):
            bank.write_bit(3, 7, 5)

    def test_write_row_refreshes_accumulators(self):
        bank = make_manual_bank()
        bank.hammer_accumulator[5] = 100.0
        bank.write_row(5, np.zeros(32, dtype=np.uint8))
        assert bank.hammer_accumulator[5] == 0.0


class TestHammerPhysics:
    def test_no_flip_below_threshold(self):
        bank = make_manual_bank()
        bank.write_row(5, np.zeros(32, dtype=np.uint8))
        bank.write_row(4, np.ones(32, dtype=np.uint8))
        bank.write_row(6, np.ones(32, dtype=np.uint8))
        flips = bank.hammer([4, 6], hammer_count=5_000)
        assert flips == []

    def test_flip_above_threshold_with_matching_direction(self):
        bank = make_manual_bank()
        bank.write_row(5, np.zeros(32, dtype=np.uint8))  # victim all 0s
        bank.write_row(4, np.ones(32, dtype=np.uint8))
        bank.write_row(6, np.ones(32, dtype=np.uint8))
        flips = bank.hammer([4, 6], hammer_count=20_000)
        # Only the 0->1 cell (col 3, threshold 10k) can flip: stored bit is 0.
        assert [(f.row, f.col, f.after) for f in flips] == [(5, 3, 1)]

    def test_direction_blocks_flip(self):
        bank = make_manual_bank()
        bank.write_row(5, np.zeros(32, dtype=np.uint8))
        bank.write_row(4, np.ones(32, dtype=np.uint8))
        bank.write_row(6, np.ones(32, dtype=np.uint8))
        flips = bank.hammer([4, 6], hammer_count=100_000)
        # Col 10 is a 1->0 cell but the victim stores 0 there, so it never flips.
        assert all(flip.col != 10 for flip in flips)

    def test_no_flip_when_data_matches_aggressor(self):
        bank = make_manual_bank()
        bank.write_row(5, np.ones(32, dtype=np.uint8))
        bank.write_row(4, np.ones(32, dtype=np.uint8))
        bank.write_row(6, np.ones(32, dtype=np.uint8))
        assert bank.hammer([4, 6], hammer_count=200_000) == []

    def test_accumulation_across_calls(self):
        bank = make_manual_bank()
        bank.write_row(5, np.zeros(32, dtype=np.uint8))
        bank.write_row(4, np.ones(32, dtype=np.uint8))
        bank.write_row(6, np.ones(32, dtype=np.uint8))
        assert bank.hammer([4, 6], hammer_count=6_000) == []
        flips = bank.hammer([4, 6], hammer_count=6_000)  # cumulative 12k > 10k
        assert len(flips) == 1

    def test_refresh_resets_accumulation(self):
        bank = make_manual_bank()
        bank.write_row(5, np.zeros(32, dtype=np.uint8))
        bank.write_row(4, np.ones(32, dtype=np.uint8))
        bank.write_row(6, np.ones(32, dtype=np.uint8))
        bank.hammer([4, 6], hammer_count=6_000)
        bank.refresh_row(5)
        assert bank.hammer([4, 6], hammer_count=6_000) == []

    def test_flip_happens_once(self):
        bank = make_manual_bank()
        bank.write_row(5, np.zeros(32, dtype=np.uint8))
        bank.write_row(4, np.ones(32, dtype=np.uint8))
        bank.write_row(6, np.ones(32, dtype=np.uint8))
        first = bank.hammer([4, 6], hammer_count=20_000)
        second = bank.hammer([4, 6], hammer_count=20_000)
        assert len(first) == 1 and second == []

    def test_aggressor_activation_counts_recorded(self):
        bank = make_manual_bank()
        bank.hammer([4, 6], hammer_count=1_000)
        assert bank.activation_counts[4] == 1_000
        assert bank.activation_counts[6] == 1_000

    def test_negative_count_rejected(self):
        bank = make_manual_bank()
        with pytest.raises(ValueError):
            bank.hammer([4], hammer_count=-1)


class TestPressPhysics:
    def test_press_flips_adjacent_pattern_rows(self):
        bank = make_manual_bank()
        bank.write_row(8, np.zeros(32, dtype=np.uint8))  # pressed row
        bank.write_row(7, np.ones(32, dtype=np.uint8))
        bank.write_row(9, np.ones(32, dtype=np.uint8))
        # RP cells are 0->1 but rows 7/9 store 1s there -> rewrite with zeros
        bank.write_row(7, np.zeros(32, dtype=np.uint8))
        bank.write_row(9, np.zeros(32, dtype=np.uint8))
        bank.write_row(8, np.ones(32, dtype=np.uint8))
        flips = bank.press(8, open_cycles=2_000_000)
        assert [(f.row, f.col) for f in flips] == [(7, 1)]

    def test_press_single_activation_recorded(self):
        bank = make_manual_bank()
        bank.press(8, open_cycles=1_000)
        assert bank.activation_counts[8] == 1

    def test_press_accumulates_over_repetitions(self):
        bank = make_manual_bank()
        bank.write_row(7, np.zeros(32, dtype=np.uint8))
        bank.write_row(8, np.ones(32, dtype=np.uint8))
        assert bank.press(8, open_cycles=600_000) == []
        flips = bank.press(8, open_cycles=600_000)
        assert len(flips) == 1

    def test_unknown_mechanism_rejected(self):
        bank = make_manual_bank()
        with pytest.raises(ValueError):
            bank._evaluate_row_flips(5, [4], mechanism="rowsmash")


class TestSampledBank:
    def test_sampled_vulnerability_produces_flips(self):
        geometry = DramGeometry(num_banks=1, rows_per_bank=32, cols_per_row=512)
        params = VulnerabilityParameters(rh_density=0.05, rp_density=0.25)
        model = CellVulnerabilityModel(geometry, params, seed=1)
        bank = DramBank(0, geometry, model.bank_map(0))
        bank.write_row(10, np.zeros(512, dtype=np.uint8))
        bank.write_row(9, np.ones(512, dtype=np.uint8))
        bank.write_row(11, np.ones(512, dtype=np.uint8))
        flips = bank.hammer([9, 11], hammer_count=1_000_000)
        assert len(flips) > 0
        # The double-sided pair disturbs the enclosed victim (row 10) and the
        # outer neighbours of each aggressor (rows 8 and 12).
        assert {flip.row for flip in flips} <= {8, 10, 12}
        assert any(flip.row == 10 for flip in flips)
