"""Tests for whole-chip profiling."""

import pytest

from repro.dram.chip import DramChip
from repro.dram.geometry import DramGeometry
from repro.dram.vulnerability import VulnerabilityParameters
from repro.faults.patterns import DataPattern, profiling_patterns
from repro.faults.profiler import ChipProfiler, ProfilingConfig
from repro.faults.profiles import BitFlipProfile


@pytest.fixture
def chip():
    geometry = DramGeometry(num_banks=1, rows_per_bank=24, cols_per_row=256)
    params = VulnerabilityParameters(rh_density=0.05, rp_density=0.2)
    return DramChip(geometry, vulnerability_parameters=params, seed=5)


class TestProfilingConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            ProfilingConfig(hammer_count=0)
        with pytest.raises(ValueError):
            ProfilingConfig(open_cycles=-1)
        with pytest.raises(ValueError):
            ProfilingConfig(row_stride=0)


class TestChipProfiler:
    def test_profile_pair_has_expected_shape(self, chip):
        config = ProfilingConfig(hammer_count=900_000, open_cycles=100_000_000)
        pair = ChipProfiler(chip, config).profile()
        stats = pair.statistics()
        assert stats["rh_cells"] > 0
        assert stats["rp_cells"] > stats["rh_cells"]

    def test_profiles_are_subsets_of_the_ideal_model(self, chip):
        config = ProfilingConfig(hammer_count=900_000, open_cycles=100_000_000)
        profiler = ChipProfiler(chip, config)
        measured = profiler.profile_rowpress()
        ideal = BitFlipProfile.from_vulnerability_model(
            chip.vulnerability_model, "rowpress", budget=100_000_000
        )
        measured_set = set(measured.flat_indices.tolist())
        ideal_set = set(ideal.flat_indices.tolist())
        assert measured_set <= ideal_set

    def test_row_stride_reduces_coverage(self, chip):
        dense_config = ProfilingConfig(hammer_count=600_000, open_cycles=60_000_000, row_stride=1)
        sparse_config = ProfilingConfig(hammer_count=600_000, open_cycles=60_000_000, row_stride=4)
        dense = ChipProfiler(chip, dense_config).profile_rowpress()
        sparse = ChipProfiler(chip, sparse_config).profile_rowpress()
        assert len(sparse) <= len(dense)

    def test_bank_restriction(self):
        geometry = DramGeometry(num_banks=2, rows_per_bank=16, cols_per_row=128)
        params = VulnerabilityParameters(rh_density=0.05, rp_density=0.2)
        chip = DramChip(geometry, vulnerability_parameters=params, seed=6)
        config = ProfilingConfig(hammer_count=600_000, open_cycles=60_000_000, banks=[1])
        profile = ChipProfiler(chip, config).profile_rowpress()
        mapper = chip.address_mapper
        banks_touched = {mapper.to_cell(int(i)).bank for i in profile.flat_indices}
        assert banks_touched <= {1}


class TestArrayBuiltProfiles:
    """The vectorized profiler builds profiles from flip arrays directly;
    they must equal ``from_flips`` over the reference engine's flips."""

    GEOMETRY = DramGeometry(num_banks=2, rows_per_bank=40, cols_per_row=128)
    PARAMS = VulnerabilityParameters(rh_density=0.05, rp_density=0.2)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize(
        "patterns",
        [(DataPattern.VICTIM_ZEROS,), (DataPattern.VICTIM_ONES,), profiling_patterns()],
    )
    @pytest.mark.parametrize("banks", [None, [1]])
    def test_profile_equals_from_flips_of_the_reference(self, stride, patterns, banks):
        config = ProfilingConfig(
            hammer_count=500_000, open_cycles=50_000_000, row_stride=stride,
            patterns=patterns, banks=banks,
        )
        reference = ChipProfiler(
            DramChip(self.GEOMETRY, vulnerability_parameters=self.PARAMS, seed=3,
                     engine="reference"),
            config, engine="reference",
        )
        vectorized = ChipProfiler(
            DramChip(self.GEOMETRY, vulnerability_parameters=self.PARAMS, seed=3), config
        )
        for mechanism, profile in (
            ("rowhammer", vectorized.profile_rowhammer()),
            ("rowpress", vectorized.profile_rowpress()),
        ):
            budget = config.hammer_count if mechanism == "rowhammer" else config.open_cycles
            expected = BitFlipProfile.from_flips(
                mechanism, reference._run_mechanism(mechanism), self.GEOMETRY, budget=budget
            )
            assert len(expected) > 0
            assert profile.to_dict() == expected.to_dict()
            assert profile.flat_indices.dtype == expected.flat_indices.dtype
            assert profile.directions.dtype == expected.directions.dtype
