"""Runner backends: serial/parallel equivalence, determinism and victim
seeding of parallel workers."""

import os
import subprocess
import sys
import textwrap
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import repro.core.comparison as comparison
import repro.experiments.runner as runner_module

from repro.core.bfa import BitSearchConfig
from repro.core.objective import ObjectiveConfig
from repro.dram.geometry import DramGeometry
from repro.experiments import (
    ComparisonSpec,
    DefenseMatrixSpec,
    ExperimentRunner,
    FlipSweepSpec,
    ExperimentContext,
    ProcessPoolBackend,
    SerialBackend,
    VictimCache,
    checkpoint_chunks,
    make_backend,
)

SMALL_GEOMETRY = DramGeometry(num_banks=1, rows_per_bank=32, cols_per_row=256)

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _tiny_comparison_spec() -> ComparisonSpec:
    return ComparisonSpec(
        model_keys=("resnet20",),
        repetitions=2,
        eval_samples=32,
        search=BitSearchConfig(max_flips=8, top_k_layers=2, eval_batch_size=32),
        training_epochs=1,
        seed=123,
        profile_seed=123,
    )


class TestBackendFactory:
    def test_make_backend(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        backend = make_backend("process", max_workers=2)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.max_workers == 2

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("gpu")

    def test_distributed_backend_is_gone(self):
        with pytest.raises(ValueError, match=r"known backends: process, serial$"):
            make_backend("distributed")
        with pytest.raises(ValueError, match="unknown backend 'thread'"):
            make_backend("thread")


class TestProcessBackendQuick:
    """Fast-tier parallel == serial checks on specs that fork in well under a second."""

    def test_process_equals_serial_for_flip_sweep(self):
        spec = FlipSweepSpec(
            geometry=SMALL_GEOMETRY,
            hammer_counts=(50_000, 200_000),
            open_cycles=(5_000_000, 20_000_000),
            max_rows_per_bank=4,
        )
        serial = ExperimentRunner(backend=SerialBackend()).run(spec).payload
        parallel = ExperimentRunner(backend=ProcessPoolBackend(max_workers=2)).run(spec).payload
        assert np.array_equal(serial.rowhammer.flips, parallel.rowhammer.flips)
        assert np.array_equal(serial.rowpress.flips, parallel.rowpress.flips)

    def test_pool_tasks_are_the_checkpoint_chunks(self, monkeypatch):
        # An in-process stand-in for the executor records every task, so
        # the chunk map the pool submits can be compared with the rule.
        submitted = []

        class InlineExecutor:
            def __init__(self, max_workers, initializer, initargs):
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, payload, chunk):
                submitted.append(list(chunk))
                future = Future()
                future.set_result(fn(payload, chunk))
                return future

        monkeypatch.setattr(runner_module, "_WORKER_CONTEXT", None)
        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", InlineExecutor)
        spec = DefenseMatrixSpec(geometry=SMALL_GEOMETRY)
        units = spec.work_units()
        chunks = checkpoint_chunks(units)
        backend = ProcessPoolBackend(max_workers=3)
        outputs = list(backend.run_chunks(spec, chunks, ExperimentContext()))
        assert submitted == [list(chunk) for chunk in chunks]
        expected = list(SerialBackend().run_chunks(spec, chunks, ExperimentContext()))
        assert repr(outputs) == repr(expected)
        pooled = ExperimentRunner(backend=backend).run(spec).payload
        assert submitted[len(chunks):] == submitted[: len(chunks)]
        assert repr(pooled) == repr(ExperimentRunner().run(spec).payload)

    def test_chunking_preserves_unit_order(self):
        spec = DefenseMatrixSpec(geometry=SMALL_GEOMETRY)
        serial = ExperimentRunner().run(spec).payload
        chunked = ExperimentRunner(backend=ProcessPoolBackend(max_workers=2)).run(spec).payload
        assert set(chunked) == set(serial)
        for name, row in serial.items():
            for mechanism, outcome in row.items():
                assert chunked[name][mechanism].flips_with_defense == outcome.flips_with_defense
                assert chunked[name][mechanism].mitigated == outcome.mitigated


class TestSerialRunner:
    def test_defense_matrix_payload_shape(self):
        spec = DefenseMatrixSpec(geometry=SMALL_GEOMETRY)
        result = ExperimentRunner().run(spec)
        assert result.kind == "defense_matrix"
        assert set(result.payload) == {config.name for config in spec.defenses}
        for row in result.payload.values():
            assert set(row) == {"rowhammer", "rowpress"}

    def test_seeded_rerun_is_identical(self):
        spec = FlipSweepSpec(
            geometry=SMALL_GEOMETRY,
            hammer_counts=(50_000, 200_000),
            open_cycles=(5_000_000, 20_000_000),
            max_rows_per_bank=4,
        )
        runner = ExperimentRunner()
        first = runner.run(spec).payload
        second = runner.run(spec).payload
        assert np.array_equal(first.rowhammer.flips, second.rowhammer.flips)
        assert np.array_equal(first.rowpress.flips, second.rowpress.flips)


@pytest.mark.slow
class TestParallelDeterminism:
    def test_parallel_equals_serial_for_flip_sweep(self):
        spec = FlipSweepSpec(
            geometry=SMALL_GEOMETRY,
            hammer_counts=(50_000, 200_000),
            open_cycles=(5_000_000, 20_000_000),
            max_rows_per_bank=4,
        )
        serial = ExperimentRunner(backend=SerialBackend()).run(spec).payload
        parallel = ExperimentRunner(backend=ProcessPoolBackend(max_workers=2)).run(spec).payload
        assert np.array_equal(serial.rowhammer.flips, parallel.rowhammer.flips)
        assert np.array_equal(serial.rowpress.flips, parallel.rowpress.flips)

    def test_parallel_equals_serial_for_attack_results(self):
        """The headline contract: same seeds => identical AttackResults."""
        spec = _tiny_comparison_spec()
        serial_runner = ExperimentRunner(backend=SerialBackend())
        serial = serial_runner.run(spec).payload
        parallel = ExperimentRunner(backend=ProcessPoolBackend(max_workers=2)).run(spec).payload

        assert len(serial) == len(parallel) == 1
        a, b = serial[0], parallel[0]
        assert a.clean_accuracy == b.clean_accuracy
        # AttackResult equality is field-wise: curves, events, flip counts.
        assert a.rowhammer.results == b.rowhammer.results
        assert a.rowpress.results == b.rowpress.results
        assert a == b
        # The serial context trained the victim exactly once for all units.
        assert serial_runner.context.victims.stats()["misses"] == 1
        assert serial_runner.context.victims.stats()["hits"] >= 4

    def test_parallel_equals_serial_for_targeted_quantized_spec(self):
        """The new scenario families honour the same determinism contract."""
        spec = ComparisonSpec(
            model_keys=("resnet20",),
            repetitions=1,
            eval_samples=32,
            search=BitSearchConfig(max_flips=6, top_k_layers=2, eval_batch_size=32),
            training_epochs=1,
            seed=321,
            profile_seed=321,
            objective=ObjectiveConfig(
                "targeted", params={"source_class": 0, "target_class": 1}
            ),
            victim_precision="int4",
        )
        serial = ExperimentRunner(backend=SerialBackend()).run(spec).payload
        parallel = ExperimentRunner(backend=ProcessPoolBackend(max_workers=2)).run(spec).payload
        a, b = serial[0], parallel[0]
        assert a.rowhammer.results == b.rowhammer.results
        assert a.rowpress.results == b.rowpress.results
        for result in a.rowhammer.results + a.rowpress.results:
            assert result.objective_kind == "targeted"
            assert result.attack_success_rate is not None

    def test_seeded_victims_are_bit_identical(self):
        """Victims materialised from seeded states == victims trained locally."""
        spec = _tiny_comparison_spec()
        serial = ExperimentRunner(backend=SerialBackend()).run(spec).payload
        runner = ExperimentRunner(backend=ProcessPoolBackend(max_workers=2))
        seeded = runner.run(spec).payload
        assert serial[0] == seeded[0]
        # The parent trained the victim once to seed the workers.
        assert runner.context.victims.stats()["misses"] == 1
        # Opting out of sharing (workers retrain) must change nothing.
        retrained = ExperimentRunner(
            backend=ProcessPoolBackend(max_workers=2, share_victims=False)
        ).run(spec).payload
        assert serial[0] == retrained[0]

    def test_workers_never_train_when_sharing(self, monkeypatch):
        """Seeded process-pool workers materialise; they never train."""
        spec = _tiny_comparison_spec()
        serial = ExperimentRunner(backend=SerialBackend()).run(spec).payload
        cache = VictimCache()
        for model_key, seed, epochs in spec.victim_requirements():
            cache.get_or_prepare_by_key(model_key, seed=seed, training_epochs=epochs)

        def refuse(*args, **kwargs):
            raise RuntimeError("prepare_victim called")

        # Forked workers inherit the patch.
        monkeypatch.setattr(comparison, "prepare_victim", refuse)
        shared = ExperimentRunner(
            backend=ProcessPoolBackend(max_workers=2), victim_cache=cache
        ).run(spec).payload
        assert serial[0] == shared[0]
        # The patch does reach the workers: without seeding they must train.
        with pytest.raises(RuntimeError, match="prepare_victim called"):
            ExperimentRunner(
                backend=ProcessPoolBackend(max_workers=2, share_victims=False),
                victim_cache=cache,
            ).run(spec)

    def test_parallel_runs_never_load_shared_memory(self, tmp_path):
        """A process-pool comparison and a daemon job use no shared memory."""
        driver = textwrap.dedent(
            """
            import sys
            from repro.core.bfa import BitSearchConfig
            from repro.dram.geometry import DramGeometry
            from repro.experiments import (
                ComparisonSpec, DefenseMatrixSpec, ExperimentRunner,
                ExperimentService, ProcessPoolBackend,
            )

            spec = ComparisonSpec(
                model_keys=("resnet20",), repetitions=1, eval_samples=32,
                search=BitSearchConfig(max_flips=2, top_k_layers=2, eval_batch_size=32),
                training_epochs=1, seed=123, profile_seed=123,
            )
            ExperimentRunner(backend=ProcessPoolBackend(max_workers=2)).run(spec)
            service = ExperimentService(
                sys.argv[1] + "/queue", sys.argv[1] + "/store",
                backend="process", max_workers=2,
            )
            matrix = DefenseMatrixSpec(
                geometry=DramGeometry(num_banks=1, rows_per_bank=24, cols_per_row=128)
            )
            service._dispatch({"op": "submit", "spec": matrix.to_dict(), "name": "m"})
            assert service.drain() == 1
            assert service.queue.jobs()[0].state == "done"
            assert "multiprocessing.shared_memory" not in sys.modules
            """
        )
        env = {**os.environ, "PYTHONPATH": SRC}
        completed = subprocess.run(
            [sys.executable, "-c", driver, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert completed.returncode == 0, completed.stderr

    def test_process_pool_after_threaded_chip_sampling(self):
        """Forked workers sample chips after the parent's sampling threads ran.

        A sampling thread pool that outlived its call would be inherited
        as dead threads by every forked worker, and the workers' own chip
        sampling would hang waiting on them.
        """
        driver = textwrap.dedent(
            """
            import os
            from repro.core.bfa import BitSearchConfig
            from repro.core.comparison import build_deployment_profiles
            from repro.experiments import (
                ComparisonSpec, ExperimentRunner, ProcessPoolBackend, SerialBackend,
            )

            # Two usable CPUs, so chip sampling takes the thread pool here
            # and in the forked workers whatever the host has.
            os.sched_getaffinity = lambda pid: {0, 1}
            build_deployment_profiles(seed=1)
            spec = ComparisonSpec(
                model_keys=("resnet20",), repetitions=1, eval_samples=32,
                search=BitSearchConfig(max_flips=2, top_k_layers=2, eval_batch_size=32),
                training_epochs=1, seed=123, profile_seed=77,
            )
            forked = ExperimentRunner(backend=ProcessPoolBackend(max_workers=2)).run(spec)
            serial = ExperimentRunner(backend=SerialBackend()).run(spec)
            assert forked.payload[0] == serial.payload[0]
            """
        )
        env = {**os.environ, "PYTHONPATH": SRC}
        completed = subprocess.run(
            [sys.executable, "-c", driver],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
