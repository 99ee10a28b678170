"""Algorithm 3: the DRAM-profile-aware bit-flip attack.

The profile-aware attack is the composition of three pieces the library
already provides:

1. quantize the victim model (:func:`repro.nn.quantization.quantize_model`),
2. place its weight bits in the DRAM address space and intersect the layout
   with a vulnerable-cell profile (:class:`repro.core.mapping.WeightBitMapping`),
3. run the progressive bit search restricted to those candidate bits
   (:class:`repro.core.bfa.BitFlipAttack`), honouring each cell's preferred
   flip direction.

:class:`DramProfileAwareAttack` wires the pieces together and reports the
quantities Table I and Fig. 7 need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.bfa import BitFlipAttack, BitSearchConfig, CandidateSet
from repro.core.mapping import DNN_DEPLOYMENT_GEOMETRY, WeightBitMapping
from repro.core.objective import AttackObjective
from repro.core.results import AttackResult
from repro.dram.geometry import DramGeometry
from repro.faults.profiles import BitFlipProfile
from repro.nn.module import Module
from repro.nn.quantization import QuantizedTensorInfo, quantize_model, quantized_parameters


@dataclass(frozen=True)
class ProfileAwareConfig:
    """Configuration of a profile-aware attack run."""

    search: BitSearchConfig = BitSearchConfig()
    #: Address-space geometry for the deployment mapping.
    geometry: DramGeometry = DNN_DEPLOYMENT_GEOMETRY
    #: Seed controlling the (random) placement of the model in memory;
    #: ``None`` places the model at offset zero.
    placement_seed: Optional[int] = None


class DramProfileAwareAttack:
    """End-to-end Algorithm 3 against one quantized model."""

    def __init__(
        self,
        model: Module,
        objective: AttackObjective,
        profile: BitFlipProfile,
        config: Optional[ProfileAwareConfig] = None,
        tensor_infos: Optional[Sequence[QuantizedTensorInfo]] = None,
        model_name: str = "model",
    ):
        self.model = model
        self.objective = objective
        self.profile = profile
        self.config = config or ProfileAwareConfig()
        self.model_name = model_name

        if not quantized_parameters(model):
            tensor_infos = quantize_model(model)
        elif tensor_infos is None:
            raise ValueError(
                "model is already quantized; pass the tensor_infos returned by "
                "quantize_model so the DRAM layout is unambiguous"
            )
        self.tensor_infos = list(tensor_infos)

        self.mapping = WeightBitMapping.for_model_infos(
            self.tensor_infos,
            geometry=self.config.geometry,
            seed=self.config.placement_seed,
        )
        per_tensor = self.mapping.candidates_from_profile(profile)
        self.candidate_set = CandidateSet.from_tensor_candidates(per_tensor)

    # ------------------------------------------------------------------
    @property
    def num_candidate_bits(self) -> int:
        """Number of weight bits that landed on vulnerable cells."""
        return self.candidate_set.total_candidates(self.model)

    def run(self) -> AttackResult:
        """Execute the profile-constrained progressive bit search."""
        attack = BitFlipAttack(
            model=self.model,
            objective=self.objective,
            candidates=self.candidate_set,
            config=self.config.search,
            model_name=self.model_name,
            mechanism=self.profile.mechanism,
        )
        return attack.run()


def run_profile_aware_attack(
    model: Module,
    objective: AttackObjective,
    profile: BitFlipProfile,
    config: Optional[ProfileAwareConfig] = None,
    tensor_infos: Optional[Sequence[QuantizedTensorInfo]] = None,
    model_name: str = "model",
) -> AttackResult:
    """Convenience wrapper: build and run a :class:`DramProfileAwareAttack`."""
    attack = DramProfileAwareAttack(
        model=model,
        objective=objective,
        profile=profile,
        config=config,
        tensor_infos=tensor_infos,
        model_name=model_name,
    )
    return attack.run()
