"""Unified experiment API: declarative specs, cached victims, one runner.

This package is the single front door for every experiment the
reproduction defines:

* :mod:`~repro.experiments.specs` — JSON-serialisable
  :class:`ExperimentSpec` variants describing each paper artefact
  (Table I / Fig. 7 comparisons, the defense-bypass matrix, Fig. 6
  budget sweeps, Fig. 4 profiling, the profile-density ablation);
* :mod:`~repro.experiments.runner` — :class:`ExperimentRunner` with
  a serial and a process-pool backend that produce identical,
  seed-determined results (the pool seeds its workers with the victims
  the runner trained, so no worker retrains);
* :mod:`~repro.experiments.cache` — :class:`VictimCache`, training each
  surrogate victim once and sharing clean-state snapshots across
  experiments;
* :mod:`~repro.experiments.store` — :class:`ResultStore`, persisting
  every result type as flat, checksummed, schema-versioned JSON
  envelopes;
* :mod:`~repro.experiments.service` — :class:`ExperimentService`, the
  persistent daemon behind ``python -m repro serve``: an async
  :class:`JobQueue` (:mod:`~repro.experiments.queue`), a warm
  :class:`VictimCache` kept across jobs and a :class:`ServiceClient`
  for submit/status/cancel/results;
* :mod:`~repro.experiments.fsck` — offline integrity checking behind
  ``python -m repro fsck``: :func:`fsck_store` / :func:`fsck_queue`
  verify every checksummed file and quarantine corruption;
* :mod:`~repro.experiments.cli` — the ``python -m repro`` command line.

Quick start::

    from repro.experiments import ComparisonSpec, ExperimentRunner, ResultStore

    runner = ExperimentRunner(store=ResultStore("benchmarks/results"))
    result = runner.run(ComparisonSpec(model_keys=("resnet20",), repetitions=1))
    for comparison in result.payload:
        print(comparison.as_row())
"""

from repro.core.objective import ObjectiveConfig
from repro.experiments.cache import ExperimentContext, VictimCache, VictimKey
from repro.experiments.checkpoint import ChunkCheckpoint, checkpoint_chunks
from repro.experiments.fsck import (
    FsckIssue,
    FsckReport,
    fsck_queue,
    fsck_store,
)
from repro.experiments.queue import Job, JobQueue, QueueFullError
from repro.experiments.runner import (
    BACKENDS,
    ExecutionBackend,
    ExperimentResult,
    ExperimentRunner,
    ProcessPoolBackend,
    SerialBackend,
    make_backend,
)
from repro.experiments.service import (
    ExperimentService,
    ServiceClient,
    ServiceOverloadError,
    ServiceUnavailableError,
)
from repro.experiments.specs import (
    MECHANISMS,
    SPEC_KINDS,
    ChipProfileOutcome,
    ChipProfileSpec,
    ComparisonSpec,
    DefenseConfig,
    DefenseMatrixSpec,
    ExperimentSpec,
    FlipSweepOutcome,
    FlipSweepSpec,
    ProfileDensityOutcome,
    ProfileDensitySpec,
    RefsyncOutcome,
    RefsyncSweepSpec,
    TrrSamplingOutcome,
    TrrSamplingSpec,
    canonical_spec_json,
    default_defense_roster,
    register_spec,
    spec_from_dict,
    spec_hash,
)
from repro.experiments.store import (
    SCHEMA_VERSION,
    IntegrityError,
    ResultStore,
    verify_envelope,
)

__all__ = [
    "BACKENDS",
    "MECHANISMS",
    "SCHEMA_VERSION",
    "SPEC_KINDS",
    "ChipProfileOutcome",
    "ChipProfileSpec",
    "ChunkCheckpoint",
    "ComparisonSpec",
    "DefenseConfig",
    "DefenseMatrixSpec",
    "ExecutionBackend",
    "ExperimentContext",
    "ExperimentResult",
    "ExperimentRunner",
    "ExperimentService",
    "ExperimentSpec",
    "FlipSweepOutcome",
    "FlipSweepSpec",
    "FsckIssue",
    "FsckReport",
    "IntegrityError",
    "Job",
    "JobQueue",
    "ObjectiveConfig",
    "QueueFullError",
    "ProcessPoolBackend",
    "ProfileDensityOutcome",
    "ProfileDensitySpec",
    "RefsyncOutcome",
    "RefsyncSweepSpec",
    "TrrSamplingOutcome",
    "TrrSamplingSpec",
    "ResultStore",
    "SerialBackend",
    "ServiceClient",
    "ServiceOverloadError",
    "ServiceUnavailableError",
    "VictimCache",
    "VictimKey",
    "canonical_spec_json",
    "checkpoint_chunks",
    "default_defense_roster",
    "fsck_queue",
    "fsck_store",
    "make_backend",
    "register_spec",
    "spec_from_dict",
    "spec_hash",
    "verify_envelope",
]
