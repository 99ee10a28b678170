"""RowHammer-profile vs RowPress-profile comparison harness.

This module produces the data behind the paper's headline DNN results:

* Table I — for each of the eleven models, the number of bit flips each
  profile needs to degrade the model to the random-guess level;
* Fig. 7  — the accuracy-vs-flips degradation curves under both profiles;
* Takeaway 3 — the average ratio of RowHammer flips to RowPress flips.

:class:`repro.experiments.ComparisonSpec` runs these building blocks: it
trains a surrogate victim once per model, snapshots its clean weights,
and then, for each mechanism and repetition, restores the snapshot,
re-applies 8-bit post-training quantization, samples a fresh attack batch /
memory placement and runs the profile-aware attack.  Averaging over
repetitions mirrors the paper's "three runs with random attack
initialisation" protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.bfa import BitSearchConfig
from repro.core.mapping import DNN_DEPLOYMENT_GEOMETRY
from repro.core.objective import ObjectiveConfig
from repro.core.profile_aware import DramProfileAwareAttack, ProfileAwareConfig
from repro.core.results import AttackResult
from repro.dram.geometry import DramGeometry
from repro.dram.vulnerability import CellVulnerabilityModel, VulnerabilityParameters
from repro.faults.profiles import BitFlipProfile, ProfilePair
from repro.models.registry import ModelSpec
from repro.nn.data import Dataset
from repro.nn.module import Module
from repro.nn.quantization import DEFAULT_NUM_BITS, precision_num_bits, quantize_model
from repro.nn.training import evaluate_on_dataset, train
from repro.utils.rng import mix_seed
from repro.utils.validation import check_engine, check_positive

#: Attack budgets used when thresholding the vulnerability model into the
#: deployment profiles.  They correspond to the paper's fair-comparison
#: point: ~900 K hammer counts vs 100 M open-window cycles (~41.7 ms each).
DEFAULT_ROWHAMMER_PROFILE_BUDGET = 900_000.0
DEFAULT_ROWPRESS_PROFILE_BUDGET = 100_000_000.0

#: Vulnerability statistics of the chip region the victim model is deployed
#: on.  The densities are higher than the defaults used for the raw Fig.-6
#: sweep because the attacker profiles the *entire* chip and maps the victim
#: pages onto its most vulnerable region; what matters for the Table-I
#: dynamics is (a) the RowPress profile being an order of magnitude denser
#: than the RowHammer profile and (b) both containing enough damaging
#: (sign-bit) candidates for the progressive search to reach the
#: random-guess objective, mirroring the paper where both attacks converge.
DEPLOYMENT_VULNERABILITY_PARAMETERS = VulnerabilityParameters(
    rh_density=1.5e-2,
    rp_density=8.0e-2,
)


def build_deployment_profiles(
    geometry: DramGeometry = DNN_DEPLOYMENT_GEOMETRY,
    parameters: Optional[VulnerabilityParameters] = None,
    seed: int = 0,
    rowhammer_budget: float = DEFAULT_ROWHAMMER_PROFILE_BUDGET,
    rowpress_budget: float = DEFAULT_ROWPRESS_PROFILE_BUDGET,
) -> ProfilePair:
    """Profile the (statistical) deployment chip under both mechanisms."""
    if parameters is None:
        parameters = DEPLOYMENT_VULNERABILITY_PARAMETERS
    model = CellVulnerabilityModel(geometry, parameters, seed=seed)
    return ProfilePair(
        rowhammer=BitFlipProfile.from_vulnerability_model(model, "rowhammer", rowhammer_budget),
        rowpress=BitFlipProfile.from_vulnerability_model(model, "rowpress", rowpress_budget),
    )


@dataclass(frozen=True)
class ComparisonConfig:
    """Configuration of a Table-I style comparison run.

    ``objective`` selects the attack goal each repetition pursues (the
    paper's untargeted degradation by default; targeted / stealthy-targeted
    via :class:`~repro.core.objective.ObjectiveConfig`), and
    ``victim_precision`` the deployed weight precision the bit search
    attacks (``float32`` keeps the historical 8-bit PTQ path; ``int8`` /
    ``int4`` deploy explicitly quantized victims).
    """

    repetitions: int = 3
    attack_batch_size: int = 32
    eval_samples: int = 64
    tolerance: float = 2.0
    search: BitSearchConfig = BitSearchConfig()
    training_epochs: Optional[int] = None
    seed: int = 0
    objective: ObjectiveConfig = ObjectiveConfig()
    victim_precision: str = "float32"
    #: Engine tier for every attack in the comparison (``None`` = process
    #: default).  All tiers are bit-identical, so this only moves runtime.
    engine: Optional[str] = None

    def __post_init__(self) -> None:
        check_positive("repetitions", self.repetitions)
        check_positive("attack_batch_size", self.attack_batch_size)
        check_positive("eval_samples", self.eval_samples)
        precision_num_bits(self.victim_precision)  # validate the name
        if self.engine is not None:
            check_engine(self.engine)

    @property
    def num_bits(self) -> int:
        """Quantization width of the deployed victim's weight tensors."""
        return precision_num_bits(self.victim_precision)


@dataclass
class MechanismOutcome:
    """Aggregated attack outcome for one mechanism on one model."""

    mechanism: str
    results: List[AttackResult] = field(default_factory=list)

    @property
    def mean_flips(self) -> float:
        """Average number of committed flips over the repetitions."""
        if not self.results:
            return float("nan")
        return float(np.mean([r.num_flips for r in self.results]))

    @property
    def mean_accuracy_after(self) -> float:
        """Average post-attack accuracy over the repetitions."""
        if not self.results:
            return float("nan")
        return float(np.mean([r.accuracy_after for r in self.results]))

    @property
    def mean_attack_success_rate(self) -> float:
        """Average targeted attack-success-rate (%) over the repetitions.

        ``nan`` when the objective defines no ASR (untargeted runs) or when
        every repetition's ASR is undefined — report writers render it as
        ``-``, matching the flip-ratio convention.
        """
        values = [
            r.attack_success_rate
            for r in self.results
            if r.attack_success_rate is not None and not np.isnan(r.attack_success_rate)
        ]
        return float(np.mean(values)) if values else float("nan")

    @property
    def all_converged(self) -> bool:
        """Whether every repetition reached the random-guess objective."""
        return bool(self.results) and all(r.converged for r in self.results)

    @property
    def representative_curve(self) -> List[float]:
        """Accuracy curve of the first repetition (used for Fig. 7)."""
        return self.results[0].accuracy_curve if self.results else []


@dataclass
class ModelComparisonResult:
    """One model's row of Table I (measured on the surrogate)."""

    model_key: str
    display_name: str
    dataset_name: str
    num_parameters: int
    clean_accuracy: float
    random_guess_accuracy: float
    rowhammer: MechanismOutcome
    rowpress: MechanismOutcome

    @property
    def flip_ratio(self) -> float:
        """RowHammer flips / RowPress flips (Takeaway-3 per-model ratio).

        ``nan`` when neither mechanism needed any flips (the ratio is
        undefined there — report writers render it as ``-``); ``inf`` when
        only RowPress needed none.
        """
        rh = self.rowhammer.mean_flips
        rp = self.rowpress.mean_flips
        if not rp:
            return float("nan") if not rh else float("inf")
        return rh / rp

    def as_row(self) -> Dict[str, object]:
        """Dictionary row matching Table I's columns."""
        return {
            "dataset": self.dataset_name,
            "architecture": self.display_name,
            "parameters": self.num_parameters,
            "clean_accuracy": round(self.clean_accuracy, 2),
            "random_guess_accuracy": round(self.random_guess_accuracy, 2),
            "rowhammer_accuracy_after": round(self.rowhammer.mean_accuracy_after, 2),
            "rowhammer_bit_flips": round(self.rowhammer.mean_flips, 1),
            "rowpress_accuracy_after": round(self.rowpress.mean_accuracy_after, 2),
            "rowpress_bit_flips": round(self.rowpress.mean_flips, 1),
            "flip_ratio": round(self.flip_ratio, 2),
            "rowhammer_asr": round(self.rowhammer.mean_attack_success_rate, 2),
            "rowpress_asr": round(self.rowpress.mean_attack_success_rate, 2),
        }


def prepare_victim(
    spec: ModelSpec,
    seed: int = 0,
    training_epochs: Optional[int] = None,
) -> Tuple[Module, Dataset, Dict[str, np.ndarray]]:
    """Train a surrogate victim and snapshot its clean weights.

    Returns ``(model, dataset, clean_state)``; the state dict allows the
    comparison loop to restore identical clean weights before every attack
    repetition.
    """
    dataset = spec.build_dataset(seed=seed)
    model = spec.build_model(num_classes=dataset.num_classes, seed=seed)
    epochs = training_epochs if training_epochs is not None else spec.training_epochs
    train(
        model,
        dataset,
        epochs=epochs,
        batch_size=spec.training_batch_size,
        lr=spec.training_lr,
        seed=mix_seed(seed, spec.key, "train"),
    )
    return model, dataset, model.state_dict()


def measure_clean_accuracy(
    model: Module,
    dataset: Dataset,
    clean_state: Dict[str, np.ndarray],
    num_bits: int = DEFAULT_NUM_BITS,
) -> float:
    """Post-quantization accuracy of the clean (un-attacked) victim.

    ``num_bits`` is the deployed precision (8 for the paper's standard PTQ
    path, 4 for INT4 victims); the clean baseline is always measured on the
    quantized deployment image the attack subsequently flips bits in.
    """
    model.load_state_dict(clean_state)
    quantize_model(model, num_bits=num_bits)
    return evaluate_on_dataset(model, dataset)


def run_single_attack(
    model: Module,
    dataset: Dataset,
    clean_state: Dict[str, np.ndarray],
    profile: BitFlipProfile,
    config: ComparisonConfig,
    repetition_seed: int,
    model_name: str,
) -> AttackResult:
    """One seeded profile-aware attack repetition from a clean snapshot.

    This is the work unit :class:`repro.experiments.ComparisonSpec`
    executes: given the same inputs it produces the same
    :class:`AttackResult` regardless of which process executes it.
    """
    model.load_state_dict(clean_state)
    tensor_infos = quantize_model(model, num_bits=config.num_bits)
    objective = config.objective.build(
        dataset,
        attack_batch_size=config.attack_batch_size,
        eval_samples=config.eval_samples,
        tolerance=config.tolerance,
        seed=repetition_seed,
    )
    attack = DramProfileAwareAttack(
        model=model,
        objective=objective,
        profile=profile,
        config=ProfileAwareConfig(
            search=config.search,
            placement_seed=repetition_seed,
            engine=config.engine,
        ),
        tensor_infos=tensor_infos,
        model_name=model_name,
    )
    return attack.run()


def average_flip_ratio(results: List[ModelComparisonResult]) -> float:
    """Mean RowHammer/RowPress flip ratio over a set of models (Takeaway 3).

    Models whose ratio is undefined (``nan``) or infinite are skipped.
    """
    ratios = [r.flip_ratio for r in results if np.isfinite(r.flip_ratio)]
    return float(np.mean(ratios)) if ratios else float("nan")

