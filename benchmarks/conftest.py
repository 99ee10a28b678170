"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures by
declaring a :class:`repro.experiments.ExperimentSpec` and executing it on
the session-wide :class:`repro.experiments.ExperimentRunner`.  Because a
single regeneration is itself a large measured workload, benchmarks run
each workload exactly once (``benchmark.pedantic(rounds=1, iterations=1)``)
and persist their results through the session :class:`ResultStore` under
``benchmarks/results/`` so the numbers survive pytest's output capturing.

Environment knobs:

* ``REPRO_BENCH_PROFILE`` — ``fast`` (default; one repetition per attack,
  reduced budgets) or ``full`` (three repetitions, paper-style averaging).
* ``REPRO_TABLE1_MODELS`` — comma-separated subset of model keys for the
  Table-I benchmark (default: the full eleven-model roster).
* ``REPRO_TABLE1_OBJECTIVE`` — attack objective for the Table-I benchmark:
  ``untargeted`` (default), ``targeted`` or ``stealthy_targeted``; the
  targeted kinds read ``REPRO_TABLE1_SOURCE_CLASS`` /
  ``REPRO_TABLE1_TARGET_CLASS`` (defaults 0 / 1).
* ``REPRO_TABLE1_PRECISION`` — deployed victim precision for the Table-I
  benchmark: ``float32`` (default), ``int8`` or ``int4``.
* ``REPRO_BENCH_BACKEND`` — ``serial`` (default), ``thread`` or
  ``process`` to fan the experiment work units out over a pool (the
  process pool trains each victim once and hands it to its workers
  through the pool initializer).
* ``REPRO_BENCH_WORKERS`` — pool size for the parallel backends.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments import ExperimentRunner, ResultStore, make_backend

RESULTS_DIR = Path(__file__).parent / "results"


def bench_profile() -> str:
    """The requested benchmark profile (``fast`` or ``full``)."""
    profile = os.environ.get("REPRO_BENCH_PROFILE", "fast").lower()
    if profile not in ("fast", "full"):
        raise ValueError(f"REPRO_BENCH_PROFILE must be 'fast' or 'full', got {profile!r}")
    return profile


def table1_model_keys() -> list:
    """Model keys the Table-I benchmark should cover."""
    from repro.models.registry import TABLE1_ROSTER

    requested = os.environ.get("REPRO_TABLE1_MODELS", "").strip()
    if not requested:
        return [spec.key for spec in TABLE1_ROSTER]
    return [key.strip() for key in requested.split(",") if key.strip()]


def table1_objective():
    """The declarative attack objective the Table-I benchmark should run."""
    from repro.core.objective import ObjectiveConfig

    kind = os.environ.get("REPRO_TABLE1_OBJECTIVE", "untargeted").lower()
    if kind == "untargeted":
        return ObjectiveConfig()
    return ObjectiveConfig(
        kind,
        params={
            "source_class": int(os.environ.get("REPRO_TABLE1_SOURCE_CLASS", "0")),
            "target_class": int(os.environ.get("REPRO_TABLE1_TARGET_CLASS", "1")),
        },
    )


def table1_victim_precision() -> str:
    """The deployed victim precision the Table-I benchmark should attack."""
    return os.environ.get("REPRO_TABLE1_PRECISION", "float32").lower()


def write_result(name: str, payload) -> Path:
    """Persist auxiliary benchmark output (e.g. rendered tables) to ``results``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / name
    if isinstance(payload, str):
        path.write_text(payload)
    else:
        path.write_text(json.dumps(payload, indent=2, default=float))
    return path


@pytest.fixture(scope="session")
def result_store() -> ResultStore:
    """The store every benchmark persists its experiment result into."""
    return ResultStore(RESULTS_DIR)


@pytest.fixture(scope="session")
def experiment_runner(result_store) -> ExperimentRunner:
    """One runner for the whole benchmark session.

    Sharing the runner shares its :class:`VictimCache`, so benchmarks whose
    specs use the same (model, seed, epochs) reuse already-trained
    surrogates instead of retraining per driver.
    """
    backend_name = os.environ.get("REPRO_BENCH_BACKEND", "serial")
    workers = os.environ.get("REPRO_BENCH_WORKERS")
    backend = make_backend(backend_name, max_workers=int(workers) if workers else None)
    return ExperimentRunner(backend=backend, store=result_store)
