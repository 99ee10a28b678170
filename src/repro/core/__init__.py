"""The paper's primary contribution: the DRAM-profile-aware bit-flip attack.

Pipeline (Section VI):

1. :mod:`repro.core.mapping` places the quantized weight bits of a deployed
   model into the DRAM address space and cross-indexes them with a
   vulnerable-cell profile (``C_rh`` or ``C_rp``), yielding the candidate
   weight-bit set ``{B_cl}`` of eqn. 2.
2. :mod:`repro.core.bfa` implements the progressive bit-search algorithm
   (Rakin et al.'s BFA): intra-layer gradient ranking followed by
   inter-layer loss comparison, one committed flip per iteration.
3. :mod:`repro.core.profile_aware` combines the two into Algorithm 3 — the
   search is confined to weight bits that land on profiled vulnerable cells
   and respects each cell's flip direction.
4. :mod:`repro.core.comparison` holds the per-model building blocks
   (deployment profiles, victim preparation, one seeded attack repetition)
   that :class:`repro.experiments.ComparisonSpec` runs under both profiles
   for the whole Table-I roster, producing the rows, ratios and accuracy
   curves of Table I and Fig. 7.
"""

from repro.core.bfa import BitFlipAttack, BitSearchConfig, CandidateSet
from repro.core.comparison import (
    ComparisonConfig,
    ModelComparisonResult,
    prepare_victim,
)
from repro.core.mapping import WeightBitMapping, DNN_DEPLOYMENT_GEOMETRY
from repro.core.objective import (
    OBJECTIVE_KINDS,
    AttackObjective,
    ObjectiveConfig,
    ObjectiveMetrics,
    StealthyTargeted,
    TargetedMisclassification,
    UntargetedDegradation,
    register_objective,
)
from repro.core.profile_aware import DramProfileAwareAttack, ProfileAwareConfig
from repro.core.results import AttackEvent, AttackResult

__all__ = [
    "BitFlipAttack",
    "BitSearchConfig",
    "CandidateSet",
    "ComparisonConfig",
    "ModelComparisonResult",
    "prepare_victim",
    "WeightBitMapping",
    "DNN_DEPLOYMENT_GEOMETRY",
    "OBJECTIVE_KINDS",
    "AttackObjective",
    "ObjectiveConfig",
    "ObjectiveMetrics",
    "StealthyTargeted",
    "TargetedMisclassification",
    "UntargetedDegradation",
    "register_objective",
    "DramProfileAwareAttack",
    "ProfileAwareConfig",
    "AttackEvent",
    "AttackResult",
]
