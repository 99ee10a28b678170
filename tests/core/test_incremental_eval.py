"""Attack-loop wiring of the incremental evaluation engine.

The golden suites (test_bfa_golden, test_objectives_targeted) already pin
that ``engine="compiled"`` runs — which now evaluate through the
:class:`SuffixEvaluator` — are bit-identical to ``engine="reference"``.
These tests cover the wiring itself: evaluator ownership by the attack, the
multi-batch evaluation path, batched trial scoring and the hoisted batch
views.
"""

import numpy as np
import pytest

from repro.core.bfa import BitFlipAttack, BitSearchConfig
from repro.core.objective import AttackObjective, TargetedMisclassification
from repro.nn.quantization import quantize_model


@pytest.fixture
def fresh_model(tiny_trained_model):
    model, clean_state = tiny_trained_model
    model.load_state_dict(clean_state)
    quantize_model(model)
    return model


def untargeted(dataset, seed=2, **overrides):
    kwargs = dict(
        attack_batch_size=16, eval_samples=24, seed=seed, tolerance=1.0, relative_factor=1.05
    )
    kwargs.update(overrides)
    return AttackObjective.from_dataset(dataset, **kwargs)


class TestEvaluatorOwnership:
    """The bit search owns the evaluator; objectives hold no evaluation state."""

    CONFIG = BitSearchConfig(max_flips=3, top_k_layers=2, resample_attack_batch=False)

    def test_compiled_attack_builds_incremental_engine(self, fresh_model, tiny_dataset):
        attack = BitFlipAttack(fresh_model, untargeted(tiny_dataset), engine="compiled")
        assert attack._evaluator is not None
        # Every quantized tensor must map to a forward stage.
        assert set(attack._stage_of_tensor) == set(attack.parameters)

    def test_reference_attack_keeps_full_forward_path(self, fresh_model, tiny_dataset):
        objective = untargeted(tiny_dataset)
        attack = BitFlipAttack(fresh_model, objective, engine="reference")
        assert attack._evaluator is None

    def campaign(self, tiny_trained_model, objective_for):
        """Compiled, reference, then compiled after an out-of-band weight change."""
        model, clean_state = tiny_trained_model
        model.load_state_dict(clean_state)
        quantize_model(model)
        results = []
        for engine in ("compiled", "reference", "compiled"):
            if engine == "compiled" and results:
                model.head.bias.data[0] += 1.0
            attack = BitFlipAttack(model, objective_for(), config=self.CONFIG, engine=engine)
            results.append(attack.run())
        return results

    def test_shared_objective_matches_fresh_objectives(self, tiny_trained_model, tiny_dataset):
        shared = untargeted(tiny_dataset)
        reused = self.campaign(tiny_trained_model, lambda: shared)
        fresh = self.campaign(tiny_trained_model, lambda: untargeted(tiny_dataset))
        assert reused == fresh

    def test_rerun_after_out_of_band_change_matches_fresh_attack(
        self, tiny_trained_model, tiny_dataset
    ):
        """``run`` clears the evaluator, so a stale cache never answers."""
        model, clean_state = tiny_trained_model
        results = {}
        for rerun in (True, False):
            model.load_state_dict(clean_state)
            quantize_model(model)
            attack = BitFlipAttack(
                model, untargeted(tiny_dataset), config=self.CONFIG, engine="compiled"
            )
            attack.run()
            model.head.bias.data[0] += 1.0  # behind the evaluator's back
            if not rerun:
                attack = BitFlipAttack(
                    model, untargeted(tiny_dataset), config=self.CONFIG, engine="compiled"
                )
            results[rerun] = attack.run()
        assert results[True] == results[False]


class TestMultiBatchEvaluation:
    def test_small_eval_batches_golden_identical(self, tiny_trained_model, tiny_dataset):
        """Several eval batches mean several cache keys; results must not move."""
        results = {}
        for engine in ("reference", "compiled"):
            model, clean_state = tiny_trained_model
            model.load_state_dict(clean_state)
            quantize_model(model)
            objective = TargetedMisclassification.from_dataset(
                tiny_dataset, source_class=0, target_class=1,
                attack_batch_size=16, eval_samples=None, seed=4,
            )
            attack = BitFlipAttack(
                model, objective,
                config=BitSearchConfig(max_flips=4, top_k_layers=3, eval_batch_size=16),
                engine=engine,
            )
            results[engine] = attack.run()
        reference, compiled = results["reference"], results["compiled"]
        assert reference.events == compiled.events
        assert reference.accuracy_curve == compiled.accuracy_curve
        assert reference.asr_curve == compiled.asr_curve
        assert reference.loss_curve == compiled.loss_curve


class TestBatchedTrialScoring:
    """attack_losses (peek_many) == sequential apply -> peek -> revert."""

    def shortlist(self, attack, objective, count=5):
        """A realistic inter-layer shortlist from one intra-layer stage."""
        objective.attack_loss_and_gradients(attack.model, attack._evaluator)
        proposals = [
            proposal
            for proposal in (
                attack._propose_for_tensor(name) for name in attack.candidates.tensors()
            )
            if proposal is not None and np.isfinite(proposal.estimated_gain)
        ]
        proposals.sort(key=lambda p: p.estimated_gain, reverse=True)
        return proposals[:count]

    @pytest.mark.parametrize("objective_kind", ["untargeted", "targeted", "stealthy"])
    def test_batched_losses_match_sequential_peek_path(
        self, tiny_trained_model, tiny_dataset, objective_kind
    ):
        from repro.core.objective import StealthyTargeted

        model, clean_state = tiny_trained_model
        model.load_state_dict(clean_state)
        quantize_model(model)
        if objective_kind == "untargeted":
            objective = untargeted(tiny_dataset)
        elif objective_kind == "targeted":
            objective = TargetedMisclassification.from_dataset(
                tiny_dataset, source_class=0, target_class=1, attack_batch_size=16, seed=4
            )
        else:
            objective = StealthyTargeted.from_dataset(
                tiny_dataset, source_class=0, target_class=1, attack_batch_size=16, seed=4
            )
        attack = BitFlipAttack(model, objective, engine="compiled")
        evaluator = attack._evaluator
        shortlist = self.shortlist(attack, objective)
        assert len(shortlist) >= 3
        # The sequential path: one apply -> suffix peek -> revert per
        # proposal.
        sequential = []
        for proposal in shortlist:
            attack._apply(proposal)
            sequential.append(
                objective.attack_loss(
                    model,
                    flip_stage=attack._stage_of_tensor[proposal.tensor_name],
                    evaluator=evaluator,
                )
            )
            attack._revert(proposal)
        batched = attack._score_shortlist(objective, shortlist)
        assert batched == sequential

    def test_batched_losses_match_reference_full_forward(
        self, tiny_trained_model, tiny_dataset
    ):
        model, clean_state = tiny_trained_model
        model.load_state_dict(clean_state)
        quantize_model(model)
        objective = untargeted(tiny_dataset)
        attack = BitFlipAttack(model, objective, engine="compiled")
        shortlist = self.shortlist(attack, objective)
        batched = attack._score_shortlist(objective, shortlist)
        # Reference scoring: full forwards, no evaluator anywhere.
        full = []
        for proposal in shortlist:
            attack._apply(proposal)
            full.append(objective.attack_loss(model))
            attack._revert(proposal)
        assert batched == full


class TestHoistedBatches:
    def test_eval_batches_memoized(self, fresh_model, tiny_dataset):
        objective = untargeted(tiny_dataset)
        first = objective._eval_batches(16)
        assert objective._eval_batches(16) is first
        assert [start for start, _, _ in first] == list(range(0, 24, 16))
        for _, batch_x, batch_tensor in first:
            assert batch_tensor.data is batch_x or np.array_equal(batch_tensor.data, batch_x)

    def test_attack_batch_tensor_follows_resample(self, fresh_model, tiny_dataset):
        objective = untargeted(tiny_dataset)
        before = objective._batch_tensor("attack")
        assert objective._batch_tensor("attack") is before
        assert objective.resample_attack_batch()
        after = objective._batch_tensor("attack")
        assert after is not before
        assert np.array_equal(after.data, objective.attack_x)
