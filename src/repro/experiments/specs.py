"""Declarative experiment specifications — the single front door.

Every headline artefact of the reproduction (Table I / Fig. 7 comparisons,
the defense-bypass matrix, the Fig. 6 budget sweeps, the Fig. 4 profiling
campaign and the profile-density ablation) is described by one of the
:class:`ExperimentSpec` dataclasses below.  A spec is

* **declarative** — plain data, JSON round-trippable via
  :meth:`ExperimentSpec.to_dict` / :func:`spec_from_dict`, with every seed
  explicit so a spec fully determines its results.  One codec, driven by
  the dataclass fields and their type hints, serves every kind; the engine
  tier is not a field (``REPRO_DEFAULT_ENGINE`` selects it, and tiers are
  byte-identical), so it never enters :func:`spec_hash`;
* **decomposable** — :meth:`ExperimentSpec.work_units` splits the
  experiment into independent, JSON-serialisable work units that
  :class:`~repro.experiments.runner.ExperimentRunner` can execute serially
  or fan out over a process pool.  Each unit derives its randomness from
  the spec's seeds alone, so the two backends produce identical results;
* **combinable** — :meth:`ExperimentSpec.combine` assembles the unit
  outputs back into the same result objects the legacy bespoke loops
  produced (:class:`~repro.core.comparison.ModelComparisonResult`,
  :class:`~repro.defenses.evaluation.DefenseEvaluationResult`,
  :class:`~repro.faults.sweep.FlipCurve`, ...).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import typing
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple, Type, Union

import numpy as np

from repro.core.bfa import BitFlipAttack, BitSearchConfig, CandidateSet
from repro.core.comparison import (
    DEFAULT_ROWHAMMER_PROFILE_BUDGET,
    DEFAULT_ROWPRESS_PROFILE_BUDGET,
    ComparisonConfig,
    MechanismOutcome,
    ModelComparisonResult,
    build_deployment_profiles,
    run_single_attack,
)
from repro.core.mapping import DNN_DEPLOYMENT_GEOMETRY
from repro.core.objective import AttackObjective, ObjectiveConfig
from repro.core.profile_aware import DramProfileAwareAttack, ProfileAwareConfig
from repro.core.results import AttackResult
from repro.defenses import build_defense
from repro.defenses.evaluation import DefenseEvaluationResult, evaluate_defense
from repro.defenses.trr import TRR_SAMPLING_POLICIES, TrrSampler
from repro.dram.chip import DramChip
from repro.dram.geometry import DramGeometry
from repro.dram.timeline import TimelineEngine, TimelineResult
from repro.dram.timing import DramTimings
from repro.dram.vulnerability import CellVulnerabilityModel, VulnerabilityParameters
from repro.faults.profiler import ChipProfiler, ProfilingConfig
from repro.faults.profiles import BitFlipProfile, ProfilePair
from repro.faults.refsync import RefsyncConfig, build_refsync_attack
from repro.faults.rowhammer import RowHammerConfig
from repro.faults.rowpress import RowPressConfig
from repro.faults.sweep import (
    FlipCurve,
    equal_time_comparison,
    rowhammer_flip_curve,
    rowpress_flip_curve,
)
from repro.models.registry import get_spec
from repro.nn.quantization import precision_num_bits, quantize_model
from repro.utils.rng import mix_seed, spawn_seeds
from repro.utils.validation import default_engine

MECHANISMS: Tuple[str, str] = ("rowhammer", "rowpress")

#: Payload keys of removed spec fields: accepted on decode and dropped, so
#: stored results and queued jobs written before the removal still load.
RETIRED_KEYS = frozenset({"engine"})


# ----------------------------------------------------------------------
# Field-driven codec
# ----------------------------------------------------------------------
def _encode(value: Any) -> Any:
    """JSON form of a field value: dataclasses by field, in field order."""
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    if isinstance(value, Mapping):
        return {key: _encode(item) for key, item in value.items()}
    return value


@functools.lru_cache(maxsize=None)
def _field_types(cls: type) -> Dict[str, Any]:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _decode(hint: Any, value: Any) -> Any:
    """Inverse of :func:`_encode` for a value of type ``hint``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:  # Optional[X]
        (inner,) = [arg for arg in args if arg is not type(None)]
        return None if value is None else _decode(inner, value)
    if origin is tuple:
        return tuple(_decode(args[0], item) for item in value)
    if dataclasses.is_dataclass(hint):
        return _decode_dataclass(hint, value)
    if isinstance(hint, type) and issubclass(hint, Enum):
        return hint(value)
    if isinstance(value, Mapping):
        return dict(value)
    return value


def _decode_dataclass(cls: type, payload: Mapping[str, Any]) -> Any:
    types = _field_types(cls)
    unknown = sorted(set(payload) - set(types))
    if unknown:
        raise ValueError(f"{cls.__name__} has no field {unknown[0]!r}")
    return cls(**{name: _decode(types[name], value) for name, value in payload.items()})


# ----------------------------------------------------------------------
# Base class and registry
# ----------------------------------------------------------------------
class ExperimentSpec:
    """Interface shared by every experiment description.

    Subclasses are frozen dataclasses; ``kind`` identifies the experiment
    type in serialised payloads and on the ``python -m repro`` CLI.
    """

    kind: ClassVar[str] = ""
    title: ClassVar[str] = ""

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable description; inverse of :func:`spec_from_dict`."""
        return {"kind": self.kind, **_encode(self)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Missing fields take their defaults, :data:`RETIRED_KEYS` are
        dropped and any other unknown key raises :class:`ValueError`.
        """
        return _decode_dataclass(
            cls,
            {key: value for key, value in payload.items()
             if key != "kind" and key not in RETIRED_KEYS},
        )

    # -- execution protocol --------------------------------------------
    def work_units(self) -> List[Dict[str, Any]]:
        """Independent, JSON-serialisable unit descriptors."""
        raise NotImplementedError

    def run_unit(self, unit: Mapping[str, Any], context) -> Any:
        """Execute one unit; must be deterministic in (spec, unit)."""
        raise NotImplementedError

    def combine(self, units: Sequence[Mapping[str, Any]], outputs: Sequence[Any]) -> Any:
        """Assemble unit outputs (in unit order) into the result payload."""
        raise NotImplementedError

    def victim_requirements(self) -> List[Tuple[str, int, Optional[int]]]:
        """Trained victims the work units need, as (model_key, seed, epochs).

        Backends that pre-stage expensive artefacts (the process pool
        trains each listed victim once and seeds its workers with the
        clean state through the pool initializer) read this; the
        default — no victims — keeps chip-only experiments unaffected.
        """
        return []

    def describe(self) -> str:
        """One-line human-readable summary for the CLI."""
        return f"{self.kind}: {self.title or type(self).__doc__ or ''}".strip()


SPEC_KINDS: Dict[str, Type[ExperimentSpec]] = {}


def register_spec(cls: Type[ExperimentSpec]) -> Type[ExperimentSpec]:
    """Class decorator adding a spec type to the ``kind`` registry."""
    if not cls.kind:
        raise ValueError(f"{cls.__name__} must define a non-empty kind")
    SPEC_KINDS[cls.kind] = cls
    return cls


def spec_from_dict(payload: Mapping[str, Any]) -> ExperimentSpec:
    """Dispatch :meth:`ExperimentSpec.from_dict` on the payload's ``kind``."""
    try:
        kind = payload["kind"]
    except KeyError as exc:
        raise ValueError("spec payload is missing the 'kind' discriminator") from exc
    try:
        cls = SPEC_KINDS[kind]
    except KeyError as exc:
        known = ", ".join(sorted(SPEC_KINDS))
        raise ValueError(f"unknown experiment kind {kind!r}; known kinds: {known}") from exc
    return cls.from_dict(payload)


def canonical_spec_json(payload: Mapping[str, Any]) -> str:
    """Canonical JSON encoding of a spec payload (sorted keys, no spaces).

    Two payloads describing the same spec always canonicalise to the same
    string, which makes :func:`spec_hash` a stable content address across
    processes, hosts and Python versions.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=float)


def spec_hash(spec_or_payload) -> str:
    """Content hash (SHA-256 hex) of a spec or its ``to_dict`` payload.

    The job queue derives job ids from it, so duplicate submissions of
    the same spec deduplicate to one job.  Accepts either an
    :class:`ExperimentSpec` instance or its payload mapping.
    """
    if isinstance(spec_or_payload, ExperimentSpec):
        payload = spec_or_payload.to_dict()
    else:
        payload = dict(spec_or_payload)
    return hashlib.sha256(canonical_spec_json(payload).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Comparison experiments (Table I / Fig. 7)
# ----------------------------------------------------------------------
@register_spec
@dataclass(frozen=True)
class ComparisonSpec(ExperimentSpec):
    """RowHammer-profile vs RowPress-profile attack on a model roster.

    ``objective`` selects the attack goal (the paper's untargeted
    degradation by default; ``targeted`` / ``stealthy_targeted`` with their
    ``source_class`` / ``target_class`` parameters open the targeted
    scenario family) and ``victim_precision`` the deployed weight precision
    (``float32`` keeps the historical 8-bit PTQ path, ``int8`` names it
    explicitly, ``int4`` deploys a 4-bit quantized victim).  Both fields
    round-trip through JSON and are validated at construction time.
    """

    kind: ClassVar[str] = "comparison"
    title: ClassVar[str] = "Table I / Fig. 7 profile-aware attack comparison"

    model_keys: Tuple[str, ...] = ("resnet20",)
    repetitions: int = 3
    attack_batch_size: int = 32
    eval_samples: int = 64
    tolerance: float = 2.0
    search: BitSearchConfig = BitSearchConfig()
    training_epochs: Optional[int] = None
    seed: int = 0
    profile_seed: int = 0
    rowhammer_budget: float = DEFAULT_ROWHAMMER_PROFILE_BUDGET
    rowpress_budget: float = DEFAULT_ROWPRESS_PROFILE_BUDGET
    objective: ObjectiveConfig = ObjectiveConfig()
    victim_precision: str = "float32"

    def __post_init__(self) -> None:
        object.__setattr__(self, "model_keys", tuple(self.model_keys))
        for model_key in self.model_keys:
            get_spec(model_key)  # unknown keys fail before any work unit runs
        precision_num_bits(self.victim_precision)  # validate the name

    # -- execution -----------------------------------------------------
    def comparison_config(self) -> ComparisonConfig:
        """The equivalent legacy :class:`ComparisonConfig`."""
        return ComparisonConfig(
            repetitions=self.repetitions,
            attack_batch_size=self.attack_batch_size,
            eval_samples=self.eval_samples,
            tolerance=self.tolerance,
            search=self.search,
            training_epochs=self.training_epochs,
            seed=self.seed,
            objective=self.objective,
            victim_precision=self.victim_precision,
        )

    def profiles(self, context) -> ProfilePair:
        """Deployment-chip profiles, memoised per process."""
        key = ("deployment_profiles", self.profile_seed, self.rowhammer_budget, self.rowpress_budget)
        return context.memo(
            key,
            lambda: build_deployment_profiles(
                seed=self.profile_seed,
                rowhammer_budget=self.rowhammer_budget,
                rowpress_budget=self.rowpress_budget,
            ),
        )

    def victim_requirements(self) -> List[Tuple[str, int, Optional[int]]]:
        """One trained surrogate per model on the roster."""
        return [
            (model_key, self.seed, self.training_epochs)
            for model_key in self.model_keys
        ]

    def work_units(self) -> List[Dict[str, Any]]:
        units: List[Dict[str, Any]] = []
        for model_key in self.model_keys:
            units.append({"task": "clean", "model_key": model_key})
            for mechanism in MECHANISMS:
                for repetition in range(self.repetitions):
                    units.append(
                        {
                            "task": "attack",
                            "model_key": model_key,
                            "mechanism": mechanism,
                            "repetition": repetition,
                        }
                    )
        return units

    def run_unit(self, unit: Mapping[str, Any], context) -> Any:
        model_key = unit["model_key"]
        model_spec = get_spec(model_key)
        model, dataset, clean_state = context.victims.get_or_prepare(
            model_spec, seed=self.seed, training_epochs=self.training_epochs
        )
        if unit["task"] == "clean":
            return {
                "clean_accuracy": context.victims.clean_accuracy(
                    model_spec, seed=self.seed, training_epochs=self.training_epochs,
                    num_bits=precision_num_bits(self.victim_precision),
                ),
                "num_parameters": model.num_parameters(),
                "random_guess_accuracy": dataset.random_guess_accuracy,
                "display_name": model_spec.display_name,
                "dataset_name": model_spec.paper_dataset,
            }
        profiles = self.profiles(context)
        repetition_seeds = spawn_seeds(
            mix_seed(self.seed, model_key, "attack"), self.repetitions
        )
        return run_single_attack(
            model,
            dataset,
            clean_state,
            profiles.profile_for(unit["mechanism"]),
            self.comparison_config(),
            repetition_seed=repetition_seeds[unit["repetition"]],
            model_name=model_spec.display_name,
        )

    def combine(
        self, units: Sequence[Mapping[str, Any]], outputs: Sequence[Any]
    ) -> List[ModelComparisonResult]:
        clean: Dict[str, Dict[str, Any]] = {}
        outcomes: Dict[str, Dict[str, MechanismOutcome]] = {
            key: {m: MechanismOutcome(m) for m in MECHANISMS} for key in self.model_keys
        }
        for unit, output in zip(units, outputs):
            if unit["task"] == "clean":
                clean[unit["model_key"]] = output
            else:
                outcomes[unit["model_key"]][unit["mechanism"]].results.append(output)
        results: List[ModelComparisonResult] = []
        for model_key in self.model_keys:
            info = clean[model_key]
            results.append(
                ModelComparisonResult(
                    model_key=model_key,
                    display_name=info["display_name"],
                    dataset_name=info["dataset_name"],
                    num_parameters=info["num_parameters"],
                    clean_accuracy=info["clean_accuracy"],
                    random_guess_accuracy=info["random_guess_accuracy"],
                    rowhammer=outcomes[model_key]["rowhammer"],
                    rowpress=outcomes[model_key]["rowpress"],
                )
            )
        return results


# ----------------------------------------------------------------------
# Defense-bypass matrix (Section III)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DefenseConfig:
    """Declarative description of one mitigation mechanism instance."""

    defense_kind: str
    label: Optional[str] = None
    params: Mapping[str, Any] = field(default_factory=dict)

    @property
    def name(self) -> str:
        """Key the defense's results are reported under."""
        return self.label or self.defense_kind

    def build(self):
        """Instantiate the defense via the registry."""
        return build_defense(self.defense_kind, **dict(self.params))


def default_defense_roster() -> Tuple[DefenseConfig, ...]:
    """The five counter-based mechanisms evaluated in the paper."""
    return (
        DefenseConfig("trr", params={"mac_threshold": 4096}),
        DefenseConfig("graphene", params={"mac_threshold": 4096}),
        DefenseConfig("cbt", params={"mac_threshold": 4096, "num_rows": 32}),
        DefenseConfig("para", params={"refresh_probability": 0.001, "seed": 0}),
        DefenseConfig(
            "hydra",
            params={"mac_threshold": 2048, "group_size": 8, "group_threshold": 512},
        ),
    )


@register_spec
@dataclass(frozen=True)
class DefenseMatrixSpec(ExperimentSpec):
    """Every defense against both mechanisms on one simulated chip."""

    kind: ClassVar[str] = "defense_matrix"
    title: ClassVar[str] = "Section III defense-bypass matrix"

    geometry: DramGeometry = DramGeometry(num_banks=2, rows_per_bank=32, cols_per_row=1024)
    rh_density: float = 0.05
    rp_density: float = 0.2
    chip_seed: int = 21
    defenses: Tuple[DefenseConfig, ...] = field(default_factory=default_defense_roster)
    rowhammer: RowHammerConfig = RowHammerConfig(bank=0, victim_row=10, hammer_count=600_000)
    rowpress: RowPressConfig = RowPressConfig(bank=0, pressed_row=20, open_cycles=80_000_000)

    def __post_init__(self) -> None:
        object.__setattr__(self, "defenses", tuple(self.defenses))
        names = [defense.name for defense in self.defenses]
        if len(set(names)) != len(names):
            # combine() keys the matrix by name; collisions would silently
            # drop results, so make them impossible (give labels instead).
            raise ValueError(f"duplicate defense names in spec: {sorted(names)}")

    # -- execution -----------------------------------------------------
    def build_chip(self) -> DramChip:
        """A fresh chip with the spec's seeded vulnerable-cell population."""
        return DramChip(
            self.geometry,
            vulnerability_parameters=VulnerabilityParameters(
                rh_density=self.rh_density, rp_density=self.rp_density
            ),
            seed=self.chip_seed,
        )

    def work_units(self) -> List[Dict[str, Any]]:
        return [
            {"defense_index": index, "mechanism": mechanism}
            for index in range(len(self.defenses))
            for mechanism in MECHANISMS
        ]

    def run_unit(self, unit: Mapping[str, Any], context) -> DefenseEvaluationResult:
        defense = self.defenses[unit["defense_index"]].build()
        return evaluate_defense(
            self.build_chip(),
            defense,
            unit["mechanism"],
            rowhammer_config=self.rowhammer,
            rowpress_config=self.rowpress,
        )

    def combine(
        self, units: Sequence[Mapping[str, Any]], outputs: Sequence[Any]
    ) -> Dict[str, Dict[str, DefenseEvaluationResult]]:
        matrix: Dict[str, Dict[str, DefenseEvaluationResult]] = {
            defense.name: {} for defense in self.defenses
        }
        for unit, output in zip(units, outputs):
            name = self.defenses[unit["defense_index"]].name
            matrix[name][unit["mechanism"]] = output
        return matrix


# ----------------------------------------------------------------------
# Budget sweeps (Fig. 6)
# ----------------------------------------------------------------------
@dataclass
class FlipSweepOutcome:
    """The two Fig.-6 curves plus the Takeaway-1 equal-time comparison."""

    rowhammer: FlipCurve
    rowpress: FlipCurve

    def equal_time(self) -> Dict[str, float]:
        """Flips produced by each mechanism within equal wall-clock time."""
        return equal_time_comparison(self.rowhammer, self.rowpress)


@register_spec
@dataclass(frozen=True)
class FlipSweepSpec(ExperimentSpec):
    """Cumulative flip counts as the attack budget grows (Fig. 6)."""

    kind: ClassVar[str] = "flip_sweep"
    title: ClassVar[str] = "Fig. 6 flips-vs-budget sweep"

    geometry: DramGeometry = DramGeometry(num_banks=2, rows_per_bank=64, cols_per_row=1024)
    chip_seed: int = 3
    hammer_counts: Tuple[int, ...] = tuple(
        int(value) for value in np.linspace(1e5, 9e5, 8)
    )
    open_cycles: Tuple[int, ...] = tuple(int(value) for value in np.linspace(1e7, 1e8, 8))
    max_rows_per_bank: Optional[int] = 16

    def __post_init__(self) -> None:
        object.__setattr__(self, "hammer_counts", tuple(int(h) for h in self.hammer_counts))
        object.__setattr__(self, "open_cycles", tuple(int(c) for c in self.open_cycles))

    # -- execution -----------------------------------------------------
    def build_chip(self) -> DramChip:
        """A fresh chip with the default vulnerability populations."""
        return DramChip(self.geometry, seed=self.chip_seed)

    def work_units(self) -> List[Dict[str, Any]]:
        return [{"mechanism": mechanism} for mechanism in MECHANISMS]

    def run_unit(self, unit: Mapping[str, Any], context) -> FlipCurve:
        chip = self.build_chip()
        if unit["mechanism"] == "rowhammer":
            return rowhammer_flip_curve(
                chip, self.hammer_counts, max_rows_per_bank=self.max_rows_per_bank
            )
        return rowpress_flip_curve(
            chip, self.open_cycles, max_rows_per_bank=self.max_rows_per_bank
        )

    def combine(
        self, units: Sequence[Mapping[str, Any]], outputs: Sequence[Any]
    ) -> FlipSweepOutcome:
        curves = {unit["mechanism"]: output for unit, output in zip(units, outputs)}
        return FlipSweepOutcome(rowhammer=curves["rowhammer"], rowpress=curves["rowpress"])


# ----------------------------------------------------------------------
# Chip profiling campaign (Fig. 4)
# ----------------------------------------------------------------------
@dataclass
class ChipProfileOutcome:
    """Measured profile pair plus the idealised model-derived cell counts."""

    pair: ProfilePair
    ideal_rowhammer_cells: int
    ideal_rowpress_cells: int


@register_spec
@dataclass(frozen=True)
class ChipProfileSpec(ExperimentSpec):
    """Exhaustive vulnerable-cell profiling of a simulated chip (Fig. 4)."""

    kind: ClassVar[str] = "chip_profile"
    title: ClassVar[str] = "Fig. 4 vulnerable-cell profiling campaign"

    geometry: DramGeometry = DramGeometry(num_banks=2, rows_per_bank=48, cols_per_row=1024)
    chip_seed: int = 9
    hammer_count: int = 900_000
    open_cycles: int = 100_000_000
    row_stride: int = 2

    # -- execution -----------------------------------------------------
    def work_units(self) -> List[Dict[str, Any]]:
        # Banks are physically independent, so the campaign parallelises
        # over (mechanism, bank) without changing the observed flips.
        return [
            {"mechanism": mechanism, "bank": bank}
            for mechanism in MECHANISMS
            for bank in range(self.geometry.num_banks)
        ]

    def run_unit(self, unit: Mapping[str, Any], context) -> BitFlipProfile:
        engine = default_engine()
        chip = DramChip(self.geometry, seed=self.chip_seed, engine=engine)
        profiler = ChipProfiler(
            chip,
            ProfilingConfig(
                hammer_count=self.hammer_count,
                open_cycles=self.open_cycles,
                banks=[unit["bank"]],
                row_stride=self.row_stride,
            ),
            engine=engine,
        )
        if unit["mechanism"] == "rowhammer":
            return profiler.profile_rowhammer()
        return profiler.profile_rowpress()

    def combine(
        self, units: Sequence[Mapping[str, Any]], outputs: Sequence[Any]
    ) -> ChipProfileOutcome:
        merged: Dict[str, BitFlipProfile] = {}
        for mechanism, budget in (
            ("rowhammer", self.hammer_count),
            ("rowpress", self.open_cycles),
        ):
            parts = [
                output
                for unit, output in zip(units, outputs)
                if unit["mechanism"] == mechanism
            ]
            merged[mechanism] = BitFlipProfile(
                mechanism=mechanism,
                flat_indices=np.concatenate([part.flat_indices for part in parts]),
                directions=np.concatenate([part.directions for part in parts]),
                capacity_bits=self.geometry.total_cells,
                budget=budget,
            )
        vulnerability = CellVulnerabilityModel(self.geometry, None, seed=self.chip_seed)
        ideal_rh = BitFlipProfile.from_vulnerability_model(
            vulnerability, "rowhammer", budget=self.hammer_count
        )
        ideal_rp = BitFlipProfile.from_vulnerability_model(
            vulnerability, "rowpress", budget=self.open_cycles
        )
        return ChipProfileOutcome(
            pair=ProfilePair(rowhammer=merged["rowhammer"], rowpress=merged["rowpress"]),
            ideal_rowhammer_cells=len(ideal_rh),
            ideal_rowpress_cells=len(ideal_rp),
        )


# ----------------------------------------------------------------------
# Profile-density ablation
# ----------------------------------------------------------------------
@dataclass
class ProfileDensityOutcome:
    """Attack results per synthetic profile density, plus the BFA baseline."""

    density_results: Tuple[Tuple[float, AttackResult], ...]
    unconstrained: Optional[AttackResult] = None

    def as_table(self) -> Dict[str, Dict[str, Any]]:
        """Flat summary keyed like the legacy ablation benchmark output."""
        table: Dict[str, Dict[str, Any]] = {}
        entries = [(f"{density:g}", result) for density, result in self.density_results]
        if self.unconstrained is not None:
            entries.append(("unconstrained", self.unconstrained))
        for label, result in entries:
            table[label] = {
                "num_flips": result.num_flips,
                "converged": result.converged,
                "candidate_bits": result.candidate_bits,
                "accuracy_after": result.accuracy_after,
            }
        return table


@register_spec
@dataclass(frozen=True)
class ProfileDensitySpec(ExperimentSpec):
    """Sweep synthetic profile densities for one victim (DESIGN ablation)."""

    kind: ClassVar[str] = "profile_density"
    title: ClassVar[str] = "Profile-density ablation vs unconstrained BFA"

    model_key: str = "resnet20"
    densities: Tuple[float, ...] = (0.005, 0.02, 0.08)
    include_unconstrained: bool = True
    search: BitSearchConfig = BitSearchConfig(max_flips=150, top_k_layers=5)
    attack_batch_size: int = 32
    eval_samples: int = 80
    one_to_zero_probability: float = 0.5
    seed: int = 3
    profile_seed: int = 17
    objective_seed: int = 23
    training_epochs: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "densities", tuple(float(d) for d in self.densities))
        get_spec(self.model_key)  # an unknown key fails before any work unit runs

    # -- execution -----------------------------------------------------
    def victim_requirements(self) -> List[Tuple[str, int, Optional[int]]]:
        """The single surrogate every density unit attacks."""
        return [(self.model_key, self.seed, self.training_epochs)]

    def work_units(self) -> List[Dict[str, Any]]:
        units: List[Dict[str, Any]] = [
            {"task": "density", "density": density} for density in self.densities
        ]
        if self.include_unconstrained:
            units.append({"task": "unconstrained"})
        return units

    def _objective(self, dataset) -> AttackObjective:
        return AttackObjective.from_dataset(
            dataset,
            attack_batch_size=self.attack_batch_size,
            eval_samples=self.eval_samples,
            seed=self.objective_seed,
        )

    def run_unit(self, unit: Mapping[str, Any], context) -> AttackResult:
        model_spec = get_spec(self.model_key)
        model, dataset, clean_state = context.victims.get_or_prepare(
            model_spec, seed=self.seed, training_epochs=self.training_epochs
        )
        model.load_state_dict(clean_state)
        tensor_infos = quantize_model(model)
        if unit["task"] == "unconstrained":
            return BitFlipAttack(
                model,
                self._objective(dataset),
                candidates=CandidateSet.all_bits(model),
                config=self.search,
                model_name=model_spec.display_name,
                mechanism="unconstrained",
            ).run()
        density = float(unit["density"])
        profile = BitFlipProfile.synthetic(
            mechanism=f"synthetic-{density:g}",
            capacity_bits=DNN_DEPLOYMENT_GEOMETRY.total_cells,
            density=density,
            one_to_zero_probability=self.one_to_zero_probability,
            seed=self.profile_seed,
        )
        attack = DramProfileAwareAttack(
            model,
            self._objective(dataset),
            profile,
            config=ProfileAwareConfig(search=self.search),
            tensor_infos=tensor_infos,
            model_name=model_spec.display_name,
        )
        return attack.run()

    def combine(
        self, units: Sequence[Mapping[str, Any]], outputs: Sequence[Any]
    ) -> ProfileDensityOutcome:
        density_results: List[Tuple[float, AttackResult]] = []
        unconstrained: Optional[AttackResult] = None
        for unit, output in zip(units, outputs):
            if unit["task"] == "unconstrained":
                unconstrained = output
            else:
                density_results.append((float(unit["density"]), output))
        return ProfileDensityOutcome(
            density_results=tuple(density_results), unconstrained=unconstrained
        )


# ----------------------------------------------------------------------
# Command-timeline experiments (refsync attacks + TRR sampling)
# ----------------------------------------------------------------------
def _timeline_vulnerability(rh_density: float, rh_onset: float) -> VulnerabilityParameters:
    """Vulnerability population scaled to per-tREFI-window accumulation.

    The per-activation sweeps accumulate hundreds of thousands of ACTs
    before evaluating; a tREFI window fits ~306 hammer slots, so timeline
    experiments need thresholds with onset around a few hundred ACTs to
    show the refresh-schedule effects.  ``rh_onset`` becomes the minimum
    threshold, the median sits at twice the onset.
    """
    return VulnerabilityParameters(
        rh_density=rh_density,
        rh_threshold_min=float(rh_onset),
        rh_threshold_log_mean=float(np.log(2.0 * rh_onset)),
        rh_threshold_log_sigma=0.6,
    )


def _timeline_chip(
    geometry: DramGeometry,
    rh_density: float,
    rh_onset: float,
    chip_seed: int,
    ones_rows: Sequence[Tuple[int, int]],
) -> DramChip:
    """A fresh chip for a timeline unit, with aggressor/decoy rows set to ones.

    Banks start all-zeros; a flip additionally requires the aggressor's
    data to *differ* from the victim's, so the rows the attack drives
    (``ones_rows`` as (bank, row) pairs) are written to all-ones first —
    the victim-zeros data pattern of the per-activation attacks.
    """
    chip = DramChip(
        geometry,
        timings=DramTimings(),
        vulnerability_parameters=_timeline_vulnerability(rh_density, rh_onset),
        seed=chip_seed,
        engine=default_engine(),
    )
    ones = np.ones(geometry.cols_per_row, dtype=np.uint8)
    for bank, row in ones_rows:
        chip.bank(bank).write_row(row, ones)
    return chip


@dataclass
class TrrSamplingOutcome:
    """Timeline runs per sampler capacity (capacity 0 = undefended baseline)."""

    entries: Tuple[Tuple[int, TimelineResult], ...]

    def flips_by_capacity(self) -> Dict[int, int]:
        """Total latched flips per sampler capacity."""
        return {capacity: result.total_flips for capacity, result in self.entries}


@register_spec
@dataclass(frozen=True)
class TrrSamplingSpec(ExperimentSpec):
    """TRR sampler-capacity sweep on a refresh-synchronized timeline.

    Runs the same per-tREFI hammer timeline once per sampler capacity
    (capacity 0 attaches no sampler — the undefended baseline) and reports
    each run's per-window statistics and per-row sampling histogram.
    """

    kind: ClassVar[str] = "trr_sampling"
    title: ClassVar[str] = "TRR sampling-capacity sweep on the command timeline"

    geometry: DramGeometry = DramGeometry(num_banks=1, rows_per_bank=64, cols_per_row=512)
    chip_seed: int = 7
    rh_density: float = 0.15
    rh_onset: float = 400.0
    bank: int = 0
    aggressor_rows: Tuple[int, ...] = (23, 25)
    windows: int = 24
    acts_per_window: int = 64
    refresh_bins: int = 12
    capacities: Tuple[int, ...] = (0, 1, 2, 4)
    policy: str = "first"
    sampler_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "aggressor_rows", tuple(int(r) for r in self.aggressor_rows))
        object.__setattr__(self, "capacities", tuple(int(c) for c in self.capacities))
        if self.policy not in TRR_SAMPLING_POLICIES:
            raise ValueError(f"unknown sampling policy {self.policy!r}")
        if any(capacity < 0 for capacity in self.capacities):
            raise ValueError("sampler capacities must be >= 0 (0 = no sampler)")

    # -- execution -----------------------------------------------------
    def work_units(self) -> List[Dict[str, Any]]:
        return [{"capacity": capacity} for capacity in self.capacities]

    def run_unit(self, unit: Mapping[str, Any], context) -> TimelineResult:
        from repro.dram.timeline import build_hammer_timeline

        capacity = int(unit["capacity"])
        chip = _timeline_chip(
            self.geometry, self.rh_density, self.rh_onset, self.chip_seed,
            [(self.bank, row) for row in self.aggressor_rows],
        )
        timeline = build_hammer_timeline(
            chip.timings,
            bank=self.bank,
            aggressor_rows=self.aggressor_rows,
            windows=self.windows,
            acts_per_window=self.acts_per_window,
        )
        sampler = None
        if capacity > 0:
            sampler = TrrSampler(
                capacity=capacity, policy=self.policy, seed=self.sampler_seed
            )
        return TimelineEngine(chip, sampler=sampler, refresh_bins=self.refresh_bins).run(timeline)

    def combine(
        self, units: Sequence[Mapping[str, Any]], outputs: Sequence[Any]
    ) -> TrrSamplingOutcome:
        return TrrSamplingOutcome(
            entries=tuple(
                (int(unit["capacity"]), output) for unit, output in zip(units, outputs)
            )
        )


@dataclass
class RefsyncOutcome:
    """(act_rate x phase) grids of the refsync sweep's headline metrics.

    ``sampled_fractions`` keeps the undefined-ratio convention: an
    (act_rate=0, phase) cell saw no activations, its sampled fraction is
    ``nan`` and reports render it as ``-``.
    """

    act_rates: Tuple[int, ...]
    phases: Tuple[int, ...]
    flips: Tuple[Tuple[int, ...], ...]
    nrr_rows: Tuple[Tuple[int, ...], ...]
    sampled_fractions: Tuple[Tuple[float, ...], ...]

    def max_flips(self) -> int:
        """Largest flip count anywhere on the grid."""
        return max((value for row in self.flips for value in row), default=0)


@register_spec
@dataclass(frozen=True)
class RefsyncSweepSpec(ExperimentSpec):
    """Refresh-synchronized act-rate/phase sweep against a TRR sampler.

    Sweeps the per-window activation rate against the burst phase (ACT
    slots of decoy activations ahead of the aggressor burst) of a
    double-sided refsync attack and records, per grid cell, the latched
    flips, the NRR volume the sampler triggered, and the fraction of ACTs
    it observed — the act-rate heatmap that shows where the defense loses
    track of the true aggressors.
    """

    kind: ClassVar[str] = "refsync_sweep"
    title: ClassVar[str] = "Refsync act-rate/phase sweep vs TRR sampling"

    geometry: DramGeometry = DramGeometry(num_banks=1, rows_per_bank=64, cols_per_row=512)
    chip_seed: int = 11
    rh_density: float = 0.15
    rh_onset: float = 400.0
    bank: int = 0
    victim_row: int = 24
    windows: int = 24
    act_rates: Tuple[int, ...] = (0, 32, 64)
    phases: Tuple[int, ...] = (0, 2, 4)
    decoy_rows: Tuple[int, ...] = (2, 6, 10)
    capacity: int = 2
    policy: str = "first"
    sampler_seed: int = 0
    refresh_bins: int = 12

    def __post_init__(self) -> None:
        object.__setattr__(self, "act_rates", tuple(int(a) for a in self.act_rates))
        object.__setattr__(self, "phases", tuple(int(p) for p in self.phases))
        object.__setattr__(self, "decoy_rows", tuple(int(r) for r in self.decoy_rows))
        if self.policy not in TRR_SAMPLING_POLICIES:
            raise ValueError(f"unknown sampling policy {self.policy!r}")
        if self.capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {self.capacity}")

    # -- execution -----------------------------------------------------
    def refsync_config(self, act_rate: int, phase: int) -> RefsyncConfig:
        """The per-cell attack schedule for one grid point."""
        return RefsyncConfig(
            bank=self.bank,
            victim_row=self.victim_row,
            windows=self.windows,
            acts_per_window=act_rate,
            phase=phase,
            decoy_rows=self.decoy_rows,
        )

    def work_units(self) -> List[Dict[str, Any]]:
        return [
            {"act_rate": act_rate, "phase": phase}
            for act_rate in self.act_rates
            for phase in self.phases
        ]

    def run_unit(self, unit: Mapping[str, Any], context) -> Dict[str, Any]:
        config = self.refsync_config(int(unit["act_rate"]), int(unit["phase"]))
        rows_per_bank = self.geometry.rows_per_bank
        chip = _timeline_chip(
            self.geometry, self.rh_density, self.rh_onset, self.chip_seed,
            [(self.bank, row) for row in config.touched_rows(rows_per_bank)],
        )
        timeline = build_refsync_attack(chip.timings, config, rows_per_bank)
        sampler = TrrSampler(
            capacity=self.capacity, policy=self.policy, seed=self.sampler_seed
        )
        result = TimelineEngine(
            chip, sampler=sampler, refresh_bins=self.refresh_bins
        ).run(timeline)
        return {
            "flips": result.total_flips,
            "nrr_rows": result.nrr_rows_issued,
            "sampled_fraction": result.mean_sampled_fraction,
        }

    def combine(
        self, units: Sequence[Mapping[str, Any]], outputs: Sequence[Any]
    ) -> RefsyncOutcome:
        by_cell = {
            (int(unit["act_rate"]), int(unit["phase"])): output
            for unit, output in zip(units, outputs)
        }
        flips, nrr_rows, fractions = [], [], []
        for act_rate in self.act_rates:
            flips.append(
                tuple(int(by_cell[(act_rate, phase)]["flips"]) for phase in self.phases)
            )
            nrr_rows.append(
                tuple(int(by_cell[(act_rate, phase)]["nrr_rows"]) for phase in self.phases)
            )
            fractions.append(
                tuple(
                    float(by_cell[(act_rate, phase)]["sampled_fraction"])
                    for phase in self.phases
                )
            )
        return RefsyncOutcome(
            act_rates=self.act_rates,
            phases=self.phases,
            flips=tuple(flips),
            nrr_rows=tuple(nrr_rows),
            sampled_fractions=tuple(fractions),
        )
