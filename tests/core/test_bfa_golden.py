"""Golden-equivalence tests: compiled bit-search vs the loop reference.

The compiled intra-layer proposer (cached flip-delta table + one flat
argmax) must reproduce the retained per-bit loop proposer bit-for-bit —
same proposals, same tie-breaking, same committed attack events — across
seeds, models, restricted candidate sets and both kernel backends.
"""

import numpy as np
import pytest

from repro.core.bfa import BitFlipAttack, BitSearchConfig, CandidateSet
from repro.core.mapping import TensorCandidates
from repro.core.objective import AttackObjective
from repro.nn import kernels
from repro.nn.bitops import bit_flip_delta, bit_flip_delta_table
from repro.nn.quantization import quantize_model, quantized_parameters


@pytest.fixture
def objective_factory(tiny_dataset):
    def make(seed):
        return AttackObjective.from_dataset(
            tiny_dataset, attack_batch_size=16, eval_samples=24, seed=seed,
            tolerance=1.0, relative_factor=1.05,
        )
    return make


def restricted_candidates(model, seed):
    """A random per-tensor restriction exercising the profile-aware path."""
    rng = np.random.default_rng(seed)
    per_tensor = {}
    for name, parameter in quantized_parameters(model).items():
        count = max(4, parameter.size // 4)
        per_tensor[name] = TensorCandidates(
            tensor_name=name,
            weight_indices=np.sort(
                rng.choice(parameter.size, size=count, replace=False)
            ).astype(np.int64),
            bit_positions=rng.integers(0, parameter.num_bits, size=count).astype(np.int64),
            directions=rng.integers(0, 2, size=count).astype(np.int8),
        )
    return CandidateSet.from_tensor_candidates(per_tensor)


def run_attack(tiny_trained_model, objective_factory, engine, seed, restrict, backend="none"):
    model, clean_state = tiny_trained_model
    model.load_state_dict(clean_state)
    quantize_model(model)
    candidates = restricted_candidates(model, seed) if restrict else None
    attack = BitFlipAttack(
        model,
        objective_factory(seed),
        candidates=candidates,
        config=BitSearchConfig(max_flips=10, top_k_layers=3),
        engine=engine,
    )
    with kernels.use(backend):
        return attack.run()


class TestDeltaTable:
    @pytest.mark.parametrize("num_bits", [2, 4, 8])
    def test_matches_scalar_reference(self, num_bits):
        rng = np.random.default_rng(num_bits)
        low, high = -(1 << (num_bits - 1)), (1 << (num_bits - 1)) - 1
        values = rng.integers(low, high + 1, size=64)
        table = bit_flip_delta_table(values, num_bits)
        assert table.shape == (num_bits, values.size)
        for bit in range(num_bits):
            for index, value in enumerate(values):
                assert table[bit, index] == bit_flip_delta(int(value), bit, num_bits)


class TestProposerEquivalence:
    @pytest.mark.parametrize("backend", ["none", "cc"])
    @pytest.mark.parametrize("seed", [2, 3, 11])
    def test_unconstrained_events_bit_identical(
        self, tiny_trained_model, objective_factory, seed, backend
    ):
        reference = run_attack(tiny_trained_model, objective_factory, "reference", seed, False)
        result = run_attack(
            tiny_trained_model, objective_factory, "compiled", seed, False, backend
        )
        assert reference.events == result.events
        assert reference.accuracy_curve == result.accuracy_curve
        assert reference.loss_curve == result.loss_curve
        assert reference.num_flips == result.num_flips

    @pytest.mark.parametrize("backend", ["none", "cc"])
    @pytest.mark.parametrize("seed", [2, 11])
    def test_restricted_events_bit_identical(
        self, tiny_trained_model, objective_factory, seed, backend
    ):
        reference = run_attack(tiny_trained_model, objective_factory, "reference", seed, True)
        result = run_attack(
            tiny_trained_model, objective_factory, "compiled", seed, True, backend
        )
        assert reference.events == result.events
        assert reference.accuracy_curve == result.accuracy_curve

    def test_single_iteration_proposals_identical(
        self, tiny_trained_model, objective_factory
    ):
        """Compare the raw per-tensor proposals of one intra-layer stage."""
        model, clean_state = tiny_trained_model
        model.load_state_dict(clean_state)
        quantize_model(model)
        objective = objective_factory(5)
        reference = BitFlipAttack(model, objective, engine="reference")
        compiled = BitFlipAttack(model, objective, engine="compiled")
        objective.attack_loss_and_gradients(model)
        for tensor_name in reference.candidates.tensors():
            ref = reference._propose_for_tensor(tensor_name)
            vec = compiled._propose_for_tensor(tensor_name)
            assert (ref.weight_index, ref.bit_position, ref.int_before, ref.int_after) == (
                vec.weight_index, vec.bit_position, vec.int_before, vec.int_after,
            )
            assert ref.estimated_gain == vec.estimated_gain

    def test_delta_cache_tracks_apply_and_revert(
        self, tiny_trained_model, objective_factory
    ):
        """The cached table stays exact through apply/revert/commit cycles."""
        model, clean_state = tiny_trained_model
        model.load_state_dict(clean_state)
        quantize_model(model)
        attack = BitFlipAttack(model, objective_factory(7), engine="compiled")
        attack.objective.attack_loss_and_gradients(model)
        name = attack.candidates.tensors()[0]
        proposal = attack._propose_for_tensor(name)
        for action in (attack._apply, attack._revert, attack._apply):
            action(proposal)
            parameter = attack.parameters[name]
            expected = bit_flip_delta_table(
                parameter.int_repr.ravel(), parameter.num_bits
            )
            assert np.array_equal(attack._delta_tables[name], expected)
