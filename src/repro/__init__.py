"""repro — reproduction of "Compromising the Intelligence of Modern DNNs:
On the Effectiveness of Targeted RowPress" (DATE 2025).

The package is organised as the paper's system stack:

* :mod:`repro.dram` — behavioural DDR4 chip model (geometry, timing,
  commands, controller, statistical per-cell vulnerability);
* :mod:`repro.faults` — RowHammer (Algorithm 1) and RowPress (Algorithm 2)
  fault injectors, budget sweeps (Fig. 6) and chip profiling (Fig. 4);
* :mod:`repro.defenses` — counter-based RowHammer mitigations (TRR,
  Graphene, CBT, PARA, Hydra) and their evaluation against both mechanisms;
* :mod:`repro.nn` — a from-scratch numpy DNN framework with reverse-mode
  autodiff, 8-bit post-training quantization and bit-level weight access;
* :mod:`repro.models` — the eleven-model surrogate roster of Table I;
* :mod:`repro.core` — the paper's contribution: the DRAM-profile-aware
  bit-flip attack (Algorithm 3), the pluggable attack objectives
  (untargeted / targeted / stealthy-targeted) and the
  RowHammer-vs-RowPress comparison harness (Table I, Fig. 7);
* :mod:`repro.experiments` — the unified experiment API: declarative
  JSON-serialisable specs, a runner with serial / process-pool backends,
  a shared victim cache, a persistent result store and the
  ``python -m repro`` CLI;
* :mod:`repro.analysis` — metrics, table builders and report rendering.

Quick start::

    from repro import ComparisonSpec, ExperimentRunner

    runner = ExperimentRunner()
    result = runner.run(ComparisonSpec(model_keys=("resnet20",), repetitions=1))
    for comparison in result.payload:
        print(comparison.as_row())

or, from the shell::

    python -m repro run comparison --models resnet20 --report
"""

from typing import TYPE_CHECKING

__version__ = "1.1.0"

#: Lazily resolved public names -> providing module.  Keeping the imports
#: lazy means ``import repro`` stays cheap and avoids importing numpy-heavy
#: subsystems until they are actually used.
_LAZY_EXPORTS = {
    # repro.core comparison harness
    "prepare_victim": "repro.core.comparison",
    "ComparisonConfig": "repro.core.comparison",
    "ModelComparisonResult": "repro.core.comparison",
    "build_deployment_profiles": "repro.core.comparison",
    # pluggable attack objectives
    "AttackObjective": "repro.core.objective",
    "ObjectiveConfig": "repro.core.objective",
    "ObjectiveMetrics": "repro.core.objective",
    "UntargetedDegradation": "repro.core.objective",
    "TargetedMisclassification": "repro.core.objective",
    "StealthyTargeted": "repro.core.objective",
    # model roster
    "get_spec": "repro.models.registry",
    "TABLE1_ROSTER": "repro.models.registry",
    # unified experiments API
    "ExperimentSpec": "repro.experiments",
    "ComparisonSpec": "repro.experiments",
    "DefenseMatrixSpec": "repro.experiments",
    "FlipSweepSpec": "repro.experiments",
    "ChipProfileSpec": "repro.experiments",
    "ProfileDensitySpec": "repro.experiments",
    "ExperimentRunner": "repro.experiments",
    "ExperimentResult": "repro.experiments",
    "SerialBackend": "repro.experiments",
    "ProcessPoolBackend": "repro.experiments",
    "ResultStore": "repro.experiments",
    "VictimCache": "repro.experiments",
    "spec_from_dict": "repro.experiments",
}

__all__ = ["__version__", *sorted(_LAZY_EXPORTS)]


def __getattr__(name: str):
    """PEP 562 lazy re-exports of the documented public API."""
    try:
        module_name = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


if TYPE_CHECKING:  # pragma: no cover - static-analysis-only imports
    from repro.core.comparison import (  # noqa: F401
        ComparisonConfig,
        ModelComparisonResult,
        build_deployment_profiles,
        prepare_victim,
    )
    from repro.core.objective import (  # noqa: F401
        AttackObjective,
        ObjectiveConfig,
        ObjectiveMetrics,
        StealthyTargeted,
        TargetedMisclassification,
        UntargetedDegradation,
    )
    from repro.experiments import (  # noqa: F401
        ChipProfileSpec,
        ComparisonSpec,
        DefenseMatrixSpec,
        ExperimentResult,
        ExperimentRunner,
        ExperimentSpec,
        FlipSweepSpec,
        ProcessPoolBackend,
        ProfileDensitySpec,
        ResultStore,
        SerialBackend,
        VictimCache,
        spec_from_dict,
    )
    from repro.models.registry import TABLE1_ROSTER, get_spec  # noqa: F401
