"""Experiment execution: a serial backend and a process-pool backend.

The runner is intentionally small: a spec already knows how to decompose
itself into independent work units and how to combine the unit outputs
(:mod:`repro.experiments.specs`), so a backend only decides *where* the
units run.

Determinism contract: every unit derives its randomness from the spec's
explicit seeds, never from process-global state, so
:class:`ProcessPoolBackend` (with or without victim seeding) is required
to produce results identical to :class:`SerialBackend` for the same
spec.  The test suite asserts this bit-for-bit on the attack results.

Scale machinery:

* **Victim seeding** — the process pool trains each victim the spec
  declares (:meth:`ExperimentSpec.victim_requirements`) once in the
  runner's context and hands the clean states to its workers through the
  pool initializer (:func:`_victim_states`).  Workers materialise private
  models from those states (:meth:`VictimCache.seed_states`) and never
  retrain.
* **Chunked unit scheduling** — :meth:`ExperimentRunner.run` cuts units
  with :func:`~repro.experiments.checkpoint.checkpoint_chunks` into
  contiguous chunks that depend only on the unit count, and takes each
  chunk's outputs from :meth:`ExecutionBackend.run_chunks` in chunk
  order.  The pool submits one task per chunk.  A job's
  :class:`~repro.experiments.checkpoint.ChunkCheckpoint` and
  :class:`~repro.utils.resilience.Deadline` are arguments of that one
  call, so resumed chunks are skipped, each new chunk is saved as it
  arrives, and a spent budget stops the job at a chunk boundary.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence

import numpy as np

from repro.experiments.cache import ExperimentContext, VictimCache, VictimKey
from repro.experiments.checkpoint import ChunkCheckpoint, checkpoint_chunks
from repro.experiments.specs import ExperimentSpec, spec_from_dict
from repro.testing import chaos
from repro.utils.resilience import Deadline

#: Trained clean states by victim key, as handed to parallel workers.
VictimStates = Dict[VictimKey, Dict[str, np.ndarray]]

#: Worker-process context, built by the pool initializer and shared by
#: every unit the worker executes.
_WORKER_CONTEXT: Optional[ExperimentContext] = None


def _worker_init(states: VictimStates) -> None:
    """Pool initializer: a fresh context seeded with the parent's clean states."""
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = ExperimentContext()
    _WORKER_CONTEXT.victims.seed_states(states)


def _execute_chunk(
    spec_payload: Mapping[str, Any], units: Sequence[Mapping[str, Any]]
) -> List[Any]:
    """Run a contiguous chunk of units in one worker task, in unit order."""
    spec = spec_from_dict(spec_payload)
    return [spec.run_unit(unit, _WORKER_CONTEXT) for unit in units]


def _victim_states(spec: ExperimentSpec, context: ExperimentContext) -> VictimStates:
    """The clean state of every victim ``spec`` declares, keyed for seeding.

    Victims come from ``context``'s cache, so each is trained at most once
    per runner; a warm cache (a daemon's, or an earlier experiment's)
    trains nothing.
    """
    states: VictimStates = {}
    for model_key, seed, epochs in spec.victim_requirements():
        _, _, clean_state = context.victims.get_or_prepare_by_key(
            model_key, seed=seed, training_epochs=epochs
        )
        states[VictimKey(model_key, seed, epochs)] = clean_state
    return states


class ExecutionBackend:
    """Strategy deciding where a spec's work units execute."""

    name: str = "base"

    def run_chunks(
        self,
        spec: ExperimentSpec,
        chunks: Sequence[Sequence[Mapping[str, Any]]],
        context: ExperimentContext,
    ) -> Iterator[List[Any]]:
        """Yield each chunk's outputs (one per unit, in unit order), in chunk order.

        A caller that stops early closes the iterator.
        """
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """In-process execution sharing the runner's long-lived context.

    A chunk runs only when the caller asks for its outputs.
    """

    name = "serial"

    def run_chunks(
        self,
        spec: ExperimentSpec,
        chunks: Sequence[Sequence[Mapping[str, Any]]],
        context: ExperimentContext,
    ) -> Iterator[List[Any]]:
        for chunk in chunks:
            yield [spec.run_unit(unit, context) for unit in chunk]


class ProcessPoolBackend(ExecutionBackend):
    """Fan unit chunks out over a :class:`concurrent.futures.ProcessPoolExecutor`.

    The spec travels to workers as its JSON payload (so anything a worker
    needs must be declared in the spec — which is exactly the declarative
    contract).  Outputs are collected in submission order, making the
    combined result independent of worker scheduling.

    With ``share_victims`` (the default) the backend trains every victim
    the spec declares via :meth:`ExperimentSpec.victim_requirements` once
    in the parent — reusing the runner's cache when it is already warm —
    and hands the clean states to every worker through the pool
    initializer.  Under ``fork`` the workers inherit the states without
    pickling; under ``spawn`` they are pickled once per worker.  Workers
    materialise the victim from the state without retraining, so results
    stay bit-identical to serial execution.  ``share_victims=False`` makes
    every worker train its own copy instead.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None, share_victims: bool = True):
        self.max_workers = max_workers
        self.share_victims = share_victims

    def run_chunks(
        self,
        spec: ExperimentSpec,
        chunks: Sequence[Sequence[Mapping[str, Any]]],
        context: ExperimentContext,
    ) -> Iterator[List[Any]]:
        """Submit every chunk to one pool and yield results in chunk order.

        The pool starts when the first result is requested.  Closing the
        iterator early cancels the chunks no worker has started and
        waits for the running ones.
        """
        if not chunks:
            return
        workers = self.max_workers or min(sum(len(chunk) for chunk in chunks), 4)
        states = _victim_states(spec, context) if self.share_victims else {}
        payload = spec.to_dict()
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_worker_init, initargs=(states,)
        ) as pool:
            futures = [pool.submit(_execute_chunk, payload, chunk) for chunk in chunks]
            try:
                for future in futures:
                    yield future.result()
            finally:
                for future in futures:
                    future.cancel()


BACKENDS = {
    "serial": SerialBackend,
    "process": ProcessPoolBackend,
}


def make_backend(name: str, max_workers: Optional[int] = None) -> ExecutionBackend:
    """Build a backend by name: ``serial`` or ``process``."""
    try:
        backend_cls = BACKENDS[name]
    except KeyError as exc:
        known = ", ".join(sorted(BACKENDS))
        raise ValueError(f"unknown backend {name!r}; known backends: {known}") from exc
    if backend_cls is SerialBackend:
        return backend_cls()
    return backend_cls(max_workers=max_workers)


@dataclass
class ExperimentResult:
    """A spec together with the payload its execution produced."""

    spec: ExperimentSpec
    payload: Any

    @property
    def kind(self) -> str:
        """The experiment kind that produced this result."""
        return self.spec.kind


class ExperimentRunner:
    """Single entry point that executes any :class:`ExperimentSpec`.

    The runner owns a long-lived :class:`ExperimentContext`, so victims
    trained for one experiment are reused by the next (Table I, Fig. 7 and
    the ablation all share surrogates when run through one runner).  An
    optional :class:`~repro.experiments.store.ResultStore` persists results
    as they are produced.
    """

    def __init__(
        self,
        backend: Optional[ExecutionBackend] = None,
        store=None,
        victim_cache: Optional[VictimCache] = None,
    ):
        self.backend = backend or SerialBackend()
        self.context = ExperimentContext(victim_cache)
        self.store = store

    def run(
        self,
        spec: ExperimentSpec,
        save_as: Optional[str] = None,
        checkpoint: Optional[ChunkCheckpoint] = None,
        deadline: Optional[Deadline] = None,
    ) -> ExperimentResult:
        """Execute ``spec`` and (optionally) persist the result.

        With a ``checkpoint``, chunks it already holds for this chunk map
        are resumed rather than rerun, and every chunk run here is saved
        to it the moment its outputs arrive.  A ``deadline`` is checked
        before each chunk: a spent budget raises ``DeadlineExceeded``
        there, and the backend's not-yet-started chunks are cancelled.
        """
        units = spec.work_units()
        chunks = checkpoint_chunks(units)
        outputs = checkpoint.resumable(chunks) if checkpoint is not None else {}
        missing = [index for index in range(len(chunks)) if index not in outputs]
        results = self.backend.run_chunks(
            spec, [chunks[index] for index in missing], self.context
        )
        try:
            for index in missing:
                if deadline is not None:
                    deadline.check("job")
                chaos.fault_point("service.chunk")
                outputs[index] = next(results)
                if checkpoint is not None:
                    checkpoint.save_chunk(index, outputs[index])
        finally:
            results.close()
        flat = [output for index in range(len(chunks)) for output in outputs[index]]
        result = ExperimentResult(spec=spec, payload=spec.combine(units, flat))
        if self.store is not None and save_as:
            self.store.save(save_as, result)
        return result
