"""Tests for the untargeted attack objective (and the base-class dispatch)."""

import numpy as np
import pytest

from repro.core.objective import AttackObjective, ObjectiveMetrics, UntargetedDegradation
from repro.nn.inference import SuffixEvaluator
from repro.nn.training import evaluate


def make_objective(**overrides):
    defaults = dict(
        attack_x=np.zeros((4, 3, 8, 8)),
        attack_y=np.zeros(4, dtype=np.int64),
        eval_x=np.zeros((6, 3, 8, 8)),
        eval_y=np.zeros(6, dtype=np.int64),
        random_guess_accuracy=10.0,
    )
    defaults.update(overrides)
    return UntargetedDegradation(**defaults)


class TestTargetAccuracy:
    def test_target_is_max_of_absolute_and_relative_slack(self):
        objective = make_objective(tolerance=2.0, relative_factor=2.0)
        assert objective.target_accuracy == pytest.approx(20.0)
        objective = make_objective(tolerance=8.0, relative_factor=1.1)
        assert objective.target_accuracy == pytest.approx(18.0)

    def test_is_satisfied(self):
        objective = make_objective(tolerance=2.0, relative_factor=1.5)
        assert objective.is_satisfied(14.9)
        assert not objective.is_satisfied(15.1)

    def test_is_satisfied_accepts_metrics(self):
        objective = make_objective(tolerance=2.0, relative_factor=1.5)
        assert objective.is_satisfied(ObjectiveMetrics(accuracy=14.9))
        assert not objective.is_satisfied(ObjectiveMetrics(accuracy=15.1))

    def test_describe_mentions_levels(self):
        text = make_objective().describe()
        assert "random guess" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            make_objective(random_guess_accuracy=0.0)
        with pytest.raises(ValueError):
            make_objective(relative_factor=0.5)
        with pytest.raises(ValueError):
            make_objective(attack_y=np.zeros(3, dtype=np.int64))


class TestFromDataset:
    def test_base_class_dispatches_to_untargeted(self, tiny_dataset):
        """Pre-refactor call sites keep working through the base class."""
        objective = AttackObjective.from_dataset(tiny_dataset, attack_batch_size=8, seed=3)
        assert isinstance(objective, UntargetedDegradation)
        assert objective.kind == "untargeted"

    def test_sizes_and_pool(self, tiny_dataset):
        objective = AttackObjective.from_dataset(tiny_dataset, attack_batch_size=8, eval_samples=12, seed=3)
        assert objective.attack_x.shape[0] == 8
        assert objective.eval_x.shape[0] == 12
        assert objective.attack_pool_x is tiny_dataset.test_x
        assert objective.random_guess_accuracy == pytest.approx(tiny_dataset.random_guess_accuracy)

    def test_eval_defaults_to_full_test_set(self, tiny_dataset):
        objective = AttackObjective.from_dataset(tiny_dataset, attack_batch_size=4)
        assert objective.eval_x.shape[0] == tiny_dataset.test_x.shape[0]

    def test_resample_changes_batch(self, tiny_dataset):
        objective = AttackObjective.from_dataset(tiny_dataset, attack_batch_size=8, seed=3)
        before = objective.attack_x.copy()
        assert objective.resample_attack_batch()
        assert objective.attack_x.shape == before.shape
        assert not np.allclose(objective.attack_x, before)

    def test_resample_without_pool_returns_false(self):
        objective = make_objective()
        assert not objective.resample_attack_batch()


class TestModelEvaluation:
    def test_loss_and_gradients_populate_grads(self, tiny_quantized_model, tiny_dataset):
        model, _ = tiny_quantized_model
        objective = AttackObjective.from_dataset(tiny_dataset, attack_batch_size=8, seed=0)
        loss = objective.attack_loss_and_gradients(model)
        assert loss > 0
        assert any(p.grad is not None for p in model.parameters())

    def test_attack_loss_matches_loss_with_gradients(self, tiny_quantized_model, tiny_dataset):
        model, _ = tiny_quantized_model
        objective = AttackObjective.from_dataset(tiny_dataset, attack_batch_size=8, seed=0)
        with_grad = objective.attack_loss_and_gradients(model)
        forward_only = objective.attack_loss(model)
        assert forward_only == pytest.approx(with_grad, rel=1e-9)
        evaluator = SuffixEvaluator(model)
        assert objective.attack_loss_and_gradients(model, evaluator) == with_grad
        assert objective.attack_loss(model, evaluator=evaluator) == forward_only

    def test_evaluation_accuracy_in_range(self, tiny_quantized_model, tiny_dataset):
        model, _ = tiny_quantized_model
        objective = AttackObjective.from_dataset(tiny_dataset, seed=0)
        accuracy = objective.evaluate(model).accuracy
        assert 0.0 <= accuracy <= 100.0
        assert accuracy == evaluate(model, objective.eval_x, objective.eval_y)
        evaluator = SuffixEvaluator(model)
        assert objective.evaluate(model, evaluator=evaluator).accuracy == accuracy
