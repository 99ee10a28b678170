"""Targeted / stealthy objectives and quantized (INT4) victims.

Covers the pluggable-objective contract end to end: validation edge cases
(source == target rejected, ASR undefined when the evaluation set has no
source-class samples), the :class:`ObjectiveConfig` round trip through the
spec codec, attack runs driven by the new objectives, and the
golden-equivalence guarantee that ``engine="reference"`` reproduces the
compiled engine on the NumPy kernels bit-for-bit for every objective and
victim precision.
"""

import json
import math

import numpy as np
import pytest

from repro.analysis.tables import format_asr
from repro.core.bfa import BitFlipAttack, BitSearchConfig
from repro.core.objective import (
    OBJECTIVE_KINDS,
    ObjectiveConfig,
    ObjectiveMetrics,
    StealthyTargeted,
    TargetedMisclassification,
    UntargetedDegradation,
)
from repro.experiments.specs import ComparisonSpec, spec_from_dict
from repro.nn import kernels
from repro.nn.quantization import precision_num_bits, quantize_model


def make_targeted(**overrides):
    defaults = dict(
        attack_x=np.zeros((4, 3, 8, 8)),
        attack_y=np.zeros(4, dtype=np.int64),
        eval_x=np.zeros((6, 3, 8, 8)),
        eval_y=np.zeros(6, dtype=np.int64),
        source_class=0,
        target_class=1,
    )
    defaults.update(overrides)
    return TargetedMisclassification(**defaults)


class TestValidation:
    def test_source_equals_target_rejected(self):
        with pytest.raises(ValueError, match="must differ"):
            make_targeted(source_class=2, target_class=2)

    def test_config_rejects_source_equals_target_at_validation(self):
        """The declarative config fails before any work unit could run."""
        with pytest.raises(ValueError, match="must differ"):
            ObjectiveConfig("targeted", params={"source_class": 1, "target_class": 1})

    def test_config_requires_source_and_target(self):
        with pytest.raises(ValueError, match="source_class"):
            ObjectiveConfig("targeted", params={"target_class": 1})

    def test_unknown_objective_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown objective kind"):
            ObjectiveConfig("adversarial_patch")

    def test_unknown_and_reserved_params_rejected_at_validation(self):
        """Typos and runner-owned keys fail at spec time, not mid-run."""
        with pytest.raises(ValueError, match="does not accept"):
            ObjectiveConfig(
                "targeted",
                params={"source_class": 0, "target_class": 1, "succes_threshold": 80},
            )
        with pytest.raises(ValueError, match="does not accept"):
            # seeds belong to the experiment config, never to the objective
            ObjectiveConfig(
                "targeted", params={"source_class": 0, "target_class": 1, "seed": 5}
            )
        with pytest.raises(ValueError, match="does not accept"):
            ObjectiveConfig("untargeted", params={"source_class": 0})

    def test_threshold_must_be_percentage(self):
        with pytest.raises(ValueError):
            make_targeted(success_threshold=101.0)
        with pytest.raises(ValueError):
            make_targeted(success_threshold=0.0)

    def test_stealthy_clean_batch_must_be_paired(self):
        with pytest.raises(ValueError, match="provided together"):
            StealthyTargeted(
                attack_x=np.zeros((4, 3, 8, 8)),
                attack_y=np.zeros(4, dtype=np.int64),
                eval_x=np.zeros((6, 3, 8, 8)),
                eval_y=np.zeros(6, dtype=np.int64),
                source_class=0,
                target_class=1,
                clean_x=np.zeros((2, 3, 8, 8)),
            )

    def test_from_dataset_requires_source_samples(self, tiny_dataset):
        missing = tiny_dataset.num_classes + 3
        with pytest.raises(ValueError, match="no test samples"):
            TargetedMisclassification.from_dataset(
                tiny_dataset, source_class=missing, target_class=0
            )

    def test_unknown_victim_precision_rejected(self):
        with pytest.raises(ValueError, match="unknown victim precision"):
            precision_num_bits("int2")
        assert precision_num_bits("float32") == 8
        assert precision_num_bits("int4") == 4


class TestUndefinedAsr:
    def test_asr_nan_without_source_samples(self, tiny_quantized_model):
        """ASR is nan when the eval set lacks the source class — never satisfied."""
        model, _ = tiny_quantized_model
        rng = np.random.default_rng(0)
        eval_x = rng.normal(size=(6, *model_input_shape(model))).astype(np.float64)
        objective = make_targeted(
            attack_x=eval_x[:4],
            attack_y=np.zeros(4, dtype=np.int64),
            eval_x=eval_x,
            eval_y=np.full(6, 2, dtype=np.int64),  # only class 2, source is 0
        )
        metrics = objective.evaluate(model)
        assert math.isnan(metrics.attack_success_rate)
        assert not objective.is_satisfied(metrics)

    def test_undefined_asr_rendered_as_dash(self):
        """The PR 1/2 convention: undefined metrics render as '-'."""
        assert format_asr(float("nan")) == "-"
        assert format_asr(None) == "-"
        assert format_asr(87.5) == "87.5"


def model_input_shape(model):
    # The tiny test surrogate is CIFAR-like: (3, 8, 8).
    return (3, 8, 8)


class TestObjectiveConfig:
    def test_registry_covers_all_kinds(self):
        assert set(OBJECTIVE_KINDS) == {"untargeted", "targeted", "stealthy_targeted"}
        assert OBJECTIVE_KINDS["untargeted"] is UntargetedDegradation

    def test_round_trip(self):
        config = ObjectiveConfig(
            "stealthy_targeted",
            params={"source_class": 0, "target_class": 3, "max_clean_accuracy_drop": 8.0},
        )
        spec = ComparisonSpec(objective=config)
        back = spec_from_dict(json.loads(json.dumps(spec.to_dict()))).objective
        assert back == config
        assert "stealthy_targeted" in back.describe()

    def test_build_dispatches_by_kind(self, tiny_dataset):
        untargeted = ObjectiveConfig().build(tiny_dataset, seed=1, tolerance=3.0)
        assert isinstance(untargeted, UntargetedDegradation)
        assert untargeted.tolerance == 3.0

        targeted = ObjectiveConfig(
            "targeted", params={"source_class": 0, "target_class": 1}
        ).build(tiny_dataset, attack_batch_size=8, seed=1)
        assert isinstance(targeted, TargetedMisclassification)
        # The attack batch is drawn from the source class only.
        assert (targeted.attack_y == 0).all()
        assert (targeted.attack_pool_y == 0).all()

    def test_stealthy_build_draws_disjoint_clean_batch(self, tiny_dataset):
        objective = ObjectiveConfig(
            "stealthy_targeted", params={"source_class": 1, "target_class": 2}
        ).build(tiny_dataset, attack_batch_size=8, seed=4)
        assert isinstance(objective, StealthyTargeted)
        assert objective.clean_x is not None
        assert (objective.clean_y != 1).all()


class TestTargetedAttackRuns:
    def make_objective(self, tiny_dataset, seed, kind="targeted"):
        params = {"source_class": 0, "target_class": 1}
        if kind == "stealthy_targeted":
            params.update(max_clean_accuracy_drop=100.0)
        return ObjectiveConfig(kind, params=params).build(
            tiny_dataset, attack_batch_size=12, eval_samples=None, seed=seed
        )

    @pytest.mark.parametrize("kind", ["targeted", "stealthy_targeted"])
    def test_attack_tracks_asr(self, tiny_trained_model, tiny_dataset, kind):
        model, clean_state = tiny_trained_model
        model.load_state_dict(clean_state)
        quantize_model(model)
        objective = self.make_objective(tiny_dataset, seed=3, kind=kind)
        result = BitFlipAttack(
            model,
            objective,
            config=BitSearchConfig(max_flips=6, top_k_layers=3),
        ).run()
        assert result.objective_kind == kind
        assert result.attack_success_rate is not None
        assert len(result.asr_curve) == len(result.accuracy_curve)
        # The targeted loss must push the ASR at or above its start.
        assert result.asr_curve[-1] >= result.asr_curve[0]
        assert math.isnan(result.target_accuracy)

    def test_stealthy_loss_includes_clean_term(self, tiny_trained_model, tiny_dataset):
        model, clean_state = tiny_trained_model
        model.load_state_dict(clean_state)
        quantize_model(model)
        stealthy = self.make_objective(tiny_dataset, seed=5, kind="stealthy_targeted")
        bare = TargetedMisclassification(
            attack_x=stealthy.attack_x,
            attack_y=stealthy.attack_y,
            eval_x=stealthy.eval_x,
            eval_y=stealthy.eval_y,
            source_class=stealthy.source_class,
            target_class=stealthy.target_class,
        )
        assert stealthy.attack_loss(model) != pytest.approx(bare.attack_loss(model))

    def test_stealthy_baseline_and_bound(self, tiny_trained_model, tiny_dataset):
        model, clean_state = tiny_trained_model
        model.load_state_dict(clean_state)
        quantize_model(model)
        objective = self.make_objective(tiny_dataset, seed=7, kind="stealthy_targeted")
        first = objective.evaluate(model)
        assert first.clean_accuracy_drop == pytest.approx(0.0)
        # A perfect ASR with a catastrophic accuracy drop must not satisfy a
        # tight stealth bound.
        tight = StealthyTargeted(
            attack_x=objective.attack_x,
            attack_y=objective.attack_y,
            eval_x=objective.eval_x,
            eval_y=objective.eval_y,
            source_class=objective.source_class,
            target_class=objective.target_class,
            max_clean_accuracy_drop=5.0,
        )
        good = ObjectiveMetrics(accuracy=90.0, attack_success_rate=100.0, clean_accuracy_drop=2.0)
        loud = ObjectiveMetrics(accuracy=30.0, attack_success_rate=100.0, clean_accuracy_drop=60.0)
        assert tight.is_satisfied(good)
        assert not tight.is_satisfied(loud)


class TestGoldenEquivalence:
    """engine="reference" stays bit-identical for every new objective/precision."""

    def run_attack(self, tiny_trained_model, tiny_dataset, engine, kind, num_bits=8, seed=11):
        model, clean_state = tiny_trained_model
        model.load_state_dict(clean_state)
        quantize_model(model, num_bits=num_bits)
        if kind == "untargeted":
            objective = ObjectiveConfig().build(
                tiny_dataset, attack_batch_size=12, eval_samples=24, seed=seed
            )
        else:
            objective = ObjectiveConfig(
                kind, params={"source_class": 0, "target_class": 1}
            ).build(tiny_dataset, attack_batch_size=12, eval_samples=24, seed=seed)
        attack = BitFlipAttack(
            model,
            objective,
            config=BitSearchConfig(max_flips=6, top_k_layers=3),
            engine=engine,
        )
        with kernels.use("none"):
            return attack.run()

    @pytest.mark.parametrize("kind", ["targeted", "stealthy_targeted"])
    def test_new_objectives_bit_identical(self, tiny_trained_model, tiny_dataset, kind):
        reference = self.run_attack(tiny_trained_model, tiny_dataset, "reference", kind)
        compiled = self.run_attack(tiny_trained_model, tiny_dataset, "compiled", kind)
        assert reference.events == compiled.events
        assert reference.accuracy_curve == compiled.accuracy_curve
        assert reference.asr_curve == compiled.asr_curve
        assert reference.loss_curve == compiled.loss_curve

    @pytest.mark.parametrize("kind", ["untargeted", "targeted"])
    def test_int4_victims_bit_identical(self, tiny_trained_model, tiny_dataset, kind):
        reference = self.run_attack(
            tiny_trained_model, tiny_dataset, "reference", kind, num_bits=4
        )
        compiled = self.run_attack(
            tiny_trained_model, tiny_dataset, "compiled", kind, num_bits=4
        )
        assert reference.events == compiled.events
        assert reference.accuracy_curve == compiled.accuracy_curve
        assert reference.num_flips == compiled.num_flips

    def test_int4_flips_respect_narrow_range(self, tiny_trained_model, tiny_dataset):
        result = self.run_attack(
            tiny_trained_model, tiny_dataset, "compiled", "untargeted", num_bits=4
        )
        for event in result.events:
            assert -8 <= event.int_before <= 7
            assert -8 <= event.int_after <= 7
