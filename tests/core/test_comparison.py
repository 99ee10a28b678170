"""Tests for the RowHammer-vs-RowPress comparison harness (Table I machinery)."""

import hashlib
import os

import numpy as np
import pytest

from repro.core.bfa import BitSearchConfig
from repro.core.comparison import (
    ComparisonConfig,
    MechanismOutcome,
    ModelComparisonResult,
    average_flip_ratio,
    build_deployment_profiles,
)
from repro.core.results import AttackResult
from repro.experiments import ComparisonSpec, ExperimentRunner


def make_outcome(mechanism, flips_list, accuracy=10.0, converged=True):
    outcome = MechanismOutcome(mechanism)
    for flips in flips_list:
        outcome.results.append(
            AttackResult(
                model_name="toy", mechanism=mechanism, accuracy_before=90.0,
                accuracy_after=accuracy, target_accuracy=15.0, num_flips=flips,
                converged=converged, accuracy_curve=[90.0] + [accuracy] * flips,
            )
        )
    return outcome


class TestAggregation:
    def test_mechanism_outcome_means(self):
        outcome = make_outcome("rowpress", [4, 6, 8])
        assert outcome.mean_flips == pytest.approx(6.0)
        assert outcome.mean_accuracy_after == pytest.approx(10.0)
        assert outcome.all_converged

    def test_empty_outcome(self):
        outcome = MechanismOutcome("rowhammer")
        assert np.isnan(outcome.mean_flips)
        assert not outcome.all_converged
        assert outcome.representative_curve == []

    def test_model_comparison_ratio_and_row(self):
        result = ModelComparisonResult(
            model_key="resnet20", display_name="ResNet-20", dataset_name="CIFAR-10",
            num_parameters=1000, clean_accuracy=90.0, random_guess_accuracy=10.0,
            rowhammer=make_outcome("rowhammer", [30]),
            rowpress=make_outcome("rowpress", [10]),
        )
        assert result.flip_ratio == pytest.approx(3.0)
        row = result.as_row()
        assert row["architecture"] == "ResNet-20"
        assert row["rowhammer_bit_flips"] == 30
        assert row["flip_ratio"] == 3.0

    def test_flip_ratio_nan_when_neither_mechanism_flips(self):
        result = ModelComparisonResult(
            "a", "A", "d", 1, 90, 10,
            make_outcome("rowhammer", [0]), make_outcome("rowpress", [0]),
        )
        assert np.isnan(result.flip_ratio)
        # and the rendered row keeps the nan (report writers print '-')
        assert np.isnan(result.as_row()["flip_ratio"])

    def test_flip_ratio_inf_when_only_rowpress_needs_none(self):
        result = ModelComparisonResult(
            "a", "A", "d", 1, 90, 10,
            make_outcome("rowhammer", [5]), make_outcome("rowpress", [0]),
        )
        assert np.isinf(result.flip_ratio)

    def test_average_flip_ratio_skips_undefined_ratios(self):
        results = [
            ModelComparisonResult("a", "A", "d", 1, 90, 10,
                                  make_outcome("rowhammer", [30]), make_outcome("rowpress", [10])),
            ModelComparisonResult("b", "B", "d", 1, 90, 10,
                                  make_outcome("rowhammer", [0]), make_outcome("rowpress", [0])),
            ModelComparisonResult("c", "C", "d", 1, 90, 10,
                                  make_outcome("rowhammer", [5]), make_outcome("rowpress", [0])),
        ]
        assert average_flip_ratio(results) == pytest.approx(3.0)

    def test_average_flip_ratio(self):
        results = [
            ModelComparisonResult("a", "A", "d", 1, 90, 10,
                                  make_outcome("rowhammer", [40]), make_outcome("rowpress", [10])),
            ModelComparisonResult("b", "B", "d", 1, 90, 10,
                                  make_outcome("rowhammer", [20]), make_outcome("rowpress", [10])),
        ]
        assert average_flip_ratio(results) == pytest.approx(3.0)

    def test_comparison_config_validation(self):
        with pytest.raises(ValueError):
            ComparisonConfig(repetitions=0)


class TestDeploymentProfiles:
    def test_profiles_cover_the_deployment_address_space(self):
        profiles = build_deployment_profiles(seed=1)
        from repro.core.mapping import DNN_DEPLOYMENT_GEOMETRY

        assert profiles.rowhammer.capacity_bits == DNN_DEPLOYMENT_GEOMETRY.total_cells
        assert profiles.rowpress.capacity_bits == DNN_DEPLOYMENT_GEOMETRY.total_cells

    def test_rowpress_profile_denser_with_low_overlap(self):
        profiles = build_deployment_profiles(seed=1)
        stats = profiles.statistics()
        assert stats["rp_cells"] > stats["rh_cells"] * 2
        assert stats["overlap_fraction_of_union"] < 0.005

    def test_deterministic_for_seed(self):
        a = build_deployment_profiles(seed=4)
        b = build_deployment_profiles(seed=4)
        assert np.array_equal(a.rowpress.flat_indices, b.rowpress.flat_indices)

    #: sha256 over the seed-2025 profiles' RowHammer flat indices and
    #: directions, then RowPress's, as raw bytes (479727 RH, 2532218 RP
    #: cells).  A new value means every stored comparison result changes.
    SEED_2025_DIGEST = "4f584b06c0601c567c9f42ccdefe61d8d6cb503c823dd232cf3436acab3bc24f"

    @staticmethod
    def _digest(profiles) -> str:
        digest = hashlib.sha256()
        for profile in (profiles.rowhammer, profiles.rowpress):
            digest.update(profile.flat_indices.tobytes())
            digest.update(profile.directions.tobytes())
        return digest.hexdigest()

    def test_pinned_profile_bytes(self):
        profiles = build_deployment_profiles(seed=2025)
        assert (len(profiles.rowhammer), len(profiles.rowpress)) == (479727, 2532218)
        assert self._digest(profiles) == self.SEED_2025_DIGEST

    def test_thread_count_cannot_change_bytes(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert self._digest(build_deployment_profiles(seed=2025)) == self.SEED_2025_DIGEST


@pytest.mark.slow
class TestEndToEndComparison:
    def test_single_model_comparison_shape(self):
        spec = ComparisonSpec(
            model_keys=("resnet20",),
            repetitions=1,
            search=BitSearchConfig(max_flips=40, top_k_layers=4, eval_batch_size=48),
            eval_samples=48,
            training_epochs=3,
            seed=5,
            profile_seed=5,
        )
        (result,) = ExperimentRunner().run(spec).payload
        assert result.model_key == "resnet20"
        assert result.clean_accuracy > result.random_guess_accuracy
        assert result.rowhammer.mean_flips > 0
        assert result.rowpress.mean_flips > 0
        assert len(result.rowpress.representative_curve) >= 2
