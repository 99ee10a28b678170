"""Tests for BitFlipProfile / ProfilePair."""

import json

import numpy as np
import pytest

from repro.dram.cells import CellFlip
from repro.dram.geometry import DramGeometry
from repro.dram.vulnerability import CellVulnerabilityModel, FlipDirection, VulnerabilityParameters
from repro.faults.profiles import BitFlipProfile, ProfilePair


def make_profile(indices, directions=None, capacity=1000, mechanism="rowpress"):
    indices = np.asarray(indices, dtype=np.int64)
    if directions is None:
        directions = np.zeros(indices.size, dtype=np.int8)
    return BitFlipProfile(mechanism, indices, np.asarray(directions, dtype=np.int8), capacity)


class TestConstruction:
    def test_sorted_and_deduplicated(self):
        profile = make_profile([5, 1, 5, 3], directions=[1, 0, 1, 0])
        assert profile.flat_indices.tolist() == [1, 3, 5]
        assert len(profile) == 3

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_profile([1001], capacity=1000)
        with pytest.raises(ValueError):
            make_profile([-1], capacity=1000)

    def test_sorted_input_with_duplicates_is_deduplicated(self):
        profile = make_profile([1, 3, 3, 7], directions=[0, 1, 0, 1])
        assert profile.flat_indices.tolist() == [1, 3, 7]
        assert profile.directions.tolist() == [0, 1, 1]

    @pytest.mark.parametrize("bad", [2, -1])
    def test_directions_outside_zero_one_rejected(self, bad, tmp_path):
        with pytest.raises(ValueError, match="directions"):
            make_profile([1, 2], directions=[0, bad])
        payload = make_profile([1, 2], directions=[0, 1]).to_dict()
        payload["directions"] = [bad, 1]
        with pytest.raises(ValueError, match="directions"):
            BitFlipProfile.from_dict(payload)
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="directions"):
            BitFlipProfile.load(path)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BitFlipProfile("rowpress", np.array([1, 2]), np.array([0]), 100)


class TestQueries:
    def test_contains_and_direction(self):
        profile = make_profile([2, 7], directions=[1, 0])
        assert 2 in profile and 7 in profile and 5 not in profile
        assert profile.direction_of(2) is FlipDirection.ONE_TO_ZERO
        assert profile.direction_of(7) is FlipDirection.ZERO_TO_ONE
        with pytest.raises(KeyError):
            profile.direction_of(5)

    def test_density(self):
        profile = make_profile([0, 1, 2, 3], capacity=100)
        assert profile.density == pytest.approx(0.04)

    def test_direction_counts(self):
        profile = make_profile([1, 2, 3], directions=[1, 1, 0])
        assert profile.direction_counts() == {"1->0": 2, "0->1": 1}


class TestSetOperations:
    def test_overlap_and_fraction(self):
        a = make_profile([1, 2, 3, 4])
        b = make_profile([3, 4, 5, 6])
        assert a.overlap(b).tolist() == [3, 4]
        assert a.overlap_fraction(b) == pytest.approx(2 / 6)

    def test_restricted_to(self):
        profile = make_profile([1, 2, 3, 4, 5])
        restricted = profile.restricted_to([2, 4, 99])
        assert restricted.flat_indices.tolist() == [2, 4]

    def test_sample_subset(self):
        profile = make_profile(list(range(100)), capacity=1000)
        subset = profile.sample(10, seed=0)
        assert len(subset) == 10
        assert set(subset.flat_indices.tolist()) <= set(range(100))

    def test_sample_larger_than_profile_returns_self(self):
        profile = make_profile([1, 2, 3])
        assert profile.sample(100) is profile


class TestConstructionHelpers:
    def test_from_flips(self):
        geometry = DramGeometry(num_banks=1, rows_per_bank=4, cols_per_row=8)
        flips = [
            CellFlip(bank=0, row=1, col=2, before=1, after=0, mechanism="rowhammer"),
            CellFlip(bank=0, row=2, col=5, before=0, after=1, mechanism="rowhammer"),
        ]
        profile = BitFlipProfile.from_flips("rowhammer", flips, geometry)
        assert len(profile) == 2
        assert profile.direction_counts() == {"1->0": 1, "0->1": 1}

    def test_from_vulnerability_model_budget_monotone(self):
        geometry = DramGeometry(num_banks=2, rows_per_bank=32, cols_per_row=256)
        model = CellVulnerabilityModel(geometry, VulnerabilityParameters(rh_density=0.05), seed=0)
        small = BitFlipProfile.from_vulnerability_model(model, "rowhammer", budget=5e4)
        large = BitFlipProfile.from_vulnerability_model(model, "rowhammer", budget=5e6)
        assert len(large) >= len(small)
        assert set(small.flat_indices.tolist()) <= set(large.flat_indices.tolist())

    @pytest.mark.parametrize("mechanism", ["rowhammer", "rowpress"])
    def test_from_vulnerability_model_emits_sorted_cells(self, mechanism):
        geometry = DramGeometry(num_banks=3, rows_per_bank=16, cols_per_row=64)
        params = VulnerabilityParameters(rh_density=0.05, rp_density=0.2)
        model = CellVulnerabilityModel(geometry, params, seed=4)
        profile = BitFlipProfile.from_vulnerability_model(model, mechanism, budget=1e9)
        assert np.all(np.diff(profile.flat_indices) > 0)
        # Same cells and directions as sorting an unordered listing.
        flats, directions = [], []
        for bank in range(geometry.num_banks):
            rows, cols, _, dirs = model.bank_map(bank).arrays_for(mechanism)
            flats.append((rows * geometry.num_banks + bank) * geometry.cols_per_row + cols)
            directions.append(dirs)
        unordered = make_profile(
            np.concatenate(flats), np.concatenate(directions), capacity=geometry.total_cells
        )
        assert np.array_equal(profile.flat_indices, unordered.flat_indices)
        assert np.array_equal(profile.directions, unordered.directions)

    def test_from_vulnerability_model_unknown_mechanism(self):
        geometry = DramGeometry(num_banks=1, rows_per_bank=8, cols_per_row=8)
        model = CellVulnerabilityModel(geometry, seed=0)
        with pytest.raises(ValueError):
            BitFlipProfile.from_vulnerability_model(model, "rowsmash", budget=1e6)

    def test_synthetic_density(self):
        profile = BitFlipProfile.synthetic("rowpress", 10_000, density=0.1,
                                           one_to_zero_probability=0.3, seed=1)
        assert len(profile) == 1000
        assert 0.0 <= profile.direction_counts()["1->0"] / len(profile) <= 0.6

    def test_synthetic_invalid_density(self):
        with pytest.raises(ValueError):
            BitFlipProfile.synthetic("rowpress", 100, density=1.5, one_to_zero_probability=0.5)


class TestSerialization:
    def test_roundtrip_dict(self):
        profile = make_profile([3, 9, 27], directions=[1, 0, 1])
        clone = BitFlipProfile.from_dict(profile.to_dict())
        assert np.array_equal(clone.flat_indices, profile.flat_indices)
        assert np.array_equal(clone.directions, profile.directions)
        assert clone.mechanism == profile.mechanism

    def test_roundtrip_file(self, tmp_path):
        profile = make_profile([3, 9, 27])
        path = tmp_path / "profile.json"
        profile.save(path)
        clone = BitFlipProfile.load(path)
        assert np.array_equal(clone.flat_indices, profile.flat_indices)


class TestProfilePair:
    def test_statistics(self):
        pair = ProfilePair(
            rowhammer=make_profile([1, 2], mechanism="rowhammer"),
            rowpress=make_profile([2, 3, 4, 5], mechanism="rowpress"),
        )
        stats = pair.statistics()
        assert stats["rh_cells"] == 2 and stats["rp_cells"] == 4
        assert stats["rp_to_rh_ratio"] == pytest.approx(2.0)
        assert stats["overlap_cells"] == 1

    def test_profile_for(self):
        pair = ProfilePair(
            rowhammer=make_profile([1], mechanism="rowhammer"),
            rowpress=make_profile([2], mechanism="rowpress"),
        )
        assert pair.profile_for("rowhammer").mechanism == "rowhammer"
        with pytest.raises(ValueError):
            pair.profile_for("other")
