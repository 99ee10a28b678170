"""Spec serialisation: every experiment kind round-trips through JSON."""

import json
from pathlib import Path

import pytest

from repro.core.bfa import BitSearchConfig
from repro.core.objective import ObjectiveConfig
from repro.dram.geometry import DramGeometry
from repro.experiments import (
    SPEC_KINDS,
    ChipProfileSpec,
    ComparisonSpec,
    DefenseConfig,
    DefenseMatrixSpec,
    FlipSweepSpec,
    ProfileDensitySpec,
    RefsyncSweepSpec,
    TrrSamplingSpec,
    spec_from_dict,
)
from repro.faults.rowhammer import RowHammerConfig
from repro.faults.rowpress import RowPressConfig


RESULTS_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "results"


def _round_trip(spec):
    """Serialise to a JSON string and reconstruct — must be lossless."""
    payload = json.loads(json.dumps(spec.to_dict()))
    return spec_from_dict(payload)


ALL_DEFAULT_SPECS = [
    ComparisonSpec(),
    DefenseMatrixSpec(),
    FlipSweepSpec(),
    ChipProfileSpec(),
    ProfileDensitySpec(),
]


class TestRoundTrip:
    @pytest.mark.parametrize("spec", ALL_DEFAULT_SPECS, ids=lambda s: s.kind)
    def test_default_specs_round_trip(self, spec):
        assert _round_trip(spec) == spec

    def test_customised_comparison_round_trips(self):
        spec = ComparisonSpec(
            model_keys=("resnet20", "m11"),
            repetitions=2,
            eval_samples=48,
            tolerance=1.5,
            search=BitSearchConfig(max_flips=20, top_k_layers=2, eval_batch_size=16),
            training_epochs=1,
            seed=99,
            profile_seed=5,
            rowhammer_budget=1e5,
            rowpress_budget=1e7,
        )
        back = _round_trip(spec)
        assert back == spec
        assert back.search.max_flips == 20
        assert back.model_keys == ("resnet20", "m11")

    def test_customised_defense_matrix_round_trips(self):
        spec = DefenseMatrixSpec(
            geometry=DramGeometry(num_banks=1, rows_per_bank=16, cols_per_row=128),
            rh_density=0.1,
            rp_density=0.3,
            chip_seed=4,
            defenses=(DefenseConfig("graphene", label="G", params={"mac_threshold": 512}),),
            rowhammer=RowHammerConfig(bank=0, victim_row=4, hammer_count=1000),
            rowpress=RowPressConfig(bank=0, pressed_row=8, open_cycles=5_000_000),
        )
        back = _round_trip(spec)
        assert back == spec
        assert back.defenses[0].name == "G"
        assert back.rowhammer.pattern is spec.rowhammer.pattern

    def test_targeted_quantized_comparison_round_trips(self):
        spec = ComparisonSpec(
            model_keys=("resnet20",),
            objective=ObjectiveConfig(
                "targeted",
                params={"source_class": 0, "target_class": 3, "success_threshold": 80.0},
            ),
            victim_precision="int4",
        )
        back = _round_trip(spec)
        assert back == spec
        assert back.objective.objective_kind == "targeted"
        assert back.objective.params["target_class"] == 3
        assert back.victim_precision == "int4"

    def test_pre_objective_payloads_still_decode(self):
        """Stored specs predating the objective layer keep loading."""
        payload = ComparisonSpec().to_dict()
        del payload["objective"]
        del payload["victim_precision"]
        spec = spec_from_dict(payload)
        assert spec.objective == ObjectiveConfig()
        assert spec.victim_precision == "float32"

    def test_invalid_objective_rejected_at_validation(self):
        """source == target fails at spec construction, not mid-run."""
        with pytest.raises(ValueError, match="must differ"):
            ComparisonSpec(
                objective=ObjectiveConfig(
                    "targeted", params={"source_class": 2, "target_class": 2}
                )
            )
        payload = ComparisonSpec().to_dict()
        payload["objective"] = {
            "objective_kind": "targeted",
            "params": {"source_class": 1, "target_class": 1},
        }
        with pytest.raises(ValueError, match="must differ"):
            spec_from_dict(payload)

    def test_invalid_victim_precision_rejected(self):
        with pytest.raises(ValueError, match="unknown victim precision"):
            ComparisonSpec(victim_precision="fp16")

    def test_customised_sweep_and_ablation_round_trip(self):
        sweep = FlipSweepSpec(hammer_counts=(1000, 2000), open_cycles=(10_000,), chip_seed=1)
        assert _round_trip(sweep) == sweep
        ablation = ProfileDensitySpec(densities=(0.1,), include_unconstrained=False, seed=2)
        assert _round_trip(ablation) == ablation


def _committed_specs():
    for path in sorted(RESULTS_DIR.glob("*.json")):
        envelope = json.loads(path.read_text())
        if isinstance(envelope.get("spec"), dict):
            yield pytest.param(envelope["spec"], id=path.stem)


class TestCodec:
    @pytest.mark.parametrize("kind", sorted(SPEC_KINDS))
    def test_partial_payload_takes_defaults(self, kind):
        assert spec_from_dict({"kind": kind}) == SPEC_KINDS[kind]()

    def test_unknown_field_is_named(self):
        with pytest.raises(ValueError, match="'sed'"):
            spec_from_dict({"kind": "comparison", "sed": 1})
        with pytest.raises(ValueError, match="'max_flip'"):
            spec_from_dict({"kind": "comparison", "search": {"max_flip": 3}})

    @pytest.mark.parametrize(
        "spec",
        [ComparisonSpec(), ProfileDensitySpec(), TrrSamplingSpec(), RefsyncSweepSpec()],
        ids=lambda spec: spec.kind,
    )
    @pytest.mark.parametrize("engine", [None, "vectorized", "compiled", "reference"])
    def test_retired_engine_key_is_ignored(self, spec, engine):
        assert spec_from_dict({**spec.to_dict(), "engine": engine}) == spec

    @pytest.mark.parametrize("payload", list(_committed_specs()))
    def test_committed_artefact_specs_round_trip(self, payload):
        assert spec_from_dict(payload).to_dict() == payload


class TestRegistry:
    def test_all_kinds_registered(self):
        assert set(SPEC_KINDS) >= {
            "comparison",
            "defense_matrix",
            "flip_sweep",
            "chip_profile",
            "profile_density",
        }

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment kind"):
            spec_from_dict({"kind": "nonsense"})

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError, match="missing the 'kind'"):
            spec_from_dict({})


class TestWorkUnits:
    def test_comparison_units_cover_roster(self):
        spec = ComparisonSpec(model_keys=("resnet20", "m11"), repetitions=2)
        units = spec.work_units()
        # per model: one clean unit + 2 mechanisms x 2 repetitions
        assert len(units) == 2 * (1 + 4)
        assert all(json.dumps(unit) for unit in units)

    def test_unknown_model_keys_rejected_at_construction(self):
        with pytest.raises(KeyError, match="unknown model 'nosuch'"):
            ComparisonSpec(model_keys=("resnet20", "nosuch"))
        with pytest.raises(KeyError, match="unknown model 'nosuch'"):
            ProfileDensitySpec(model_key="nosuch")
        payload = ComparisonSpec().to_dict()
        payload["model_keys"] = ["nosuch"]
        with pytest.raises(KeyError, match="unknown model"):
            spec_from_dict(payload)

    def test_defense_matrix_units(self):
        spec = DefenseMatrixSpec()
        assert len(spec.work_units()) == len(spec.defenses) * 2

    def test_chip_profile_units_per_bank(self):
        spec = ChipProfileSpec(geometry=DramGeometry(num_banks=3, rows_per_bank=16, cols_per_row=64))
        assert len(spec.work_units()) == 6

    def test_profile_density_units(self):
        spec = ProfileDensitySpec(densities=(0.1, 0.2), include_unconstrained=False)
        assert len(spec.work_units()) == 2
