"""Runner backends: serial/parallel equivalence, determinism and the
shared-memory victim-shipping lifecycle."""

import glob
import multiprocessing
import os

import numpy as np
import pytest

from repro.core.bfa import BitSearchConfig
from repro.core.objective import ObjectiveConfig
from repro.dram.geometry import DramGeometry
from repro.experiments import (
    ComparisonSpec,
    DefenseMatrixSpec,
    ExperimentRunner,
    FlipSweepSpec,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    make_backend,
)
from repro.experiments.shared import (
    SEGMENT_PREFIX,
    attach_state,
    export_state,
    export_victim,
)

SMALL_GEOMETRY = DramGeometry(num_banks=1, rows_per_bank=32, cols_per_row=256)


def _segments():
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")


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
        threaded = make_backend("thread", max_workers=3)
        assert isinstance(threaded, ThreadPoolBackend)
        assert threaded.max_workers == 3

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("gpu")

    def test_distributed_backend_is_gone(self):
        with pytest.raises(ValueError, match=r"known backends: process, serial, thread$"):
            make_backend("distributed")


def _attach_and_crash(manifest):
    """Child-process body: attach the segment, then die without cleanup."""
    handle = attach_state(manifest)
    assert handle.arrays["weight"].shape == (4, 3)
    os._exit(17)  # skips atexit/finally — simulates a worker crash


class TestSharedMemoryLifecycle:
    def test_export_attach_round_trip_zero_copy(self):
        state = {
            "weight": np.arange(12, dtype=np.float64).reshape(4, 3),
            "bias": np.full(5, 2.5),
            "running": np.arange(3, dtype=np.float64),
        }
        handle, manifest = export_state(state)
        try:
            attached = attach_state(manifest)
            for key, value in state.items():
                assert np.array_equal(attached.arrays[key], value)
                # Zero-copy: the view aliases the shared pages, read-only.
                assert not attached.arrays[key].flags.writeable
                assert not attached.arrays[key].flags.owndata
            attached.close()
        finally:
            handle.unlink()
        assert not _segments()

    def test_double_detach_and_double_unlink_are_safe(self):
        handle, manifest = export_state({"weight": np.zeros(3)})
        attached = attach_state(manifest)
        attached.close()
        attached.close()  # double detach: no-op
        handle.unlink()
        handle.unlink()  # segment already gone: tolerated
        assert not _segments()

    def test_worker_crash_leaves_parent_in_control(self):
        """A crashed attacher never strands or destroys the segment."""
        state = {"weight": np.arange(12, dtype=np.float64).reshape(4, 3)}
        handle, manifest = export_state(state)
        try:
            process = multiprocessing.get_context("fork").Process(
                target=_attach_and_crash, args=(manifest,)
            )
            process.start()
            process.join(timeout=30)
            assert process.exitcode == 17
            # The parent can still serve new attachments after the crash...
            survivor = attach_state(manifest)
            assert np.array_equal(survivor.arrays["weight"], state["weight"])
            survivor.close()
        finally:
            # ...and unlinking releases the segment for good.
            handle.unlink()
        assert not _segments()

    def test_export_victim_manifest_carries_cache_key(self):
        handle, manifest = export_victim("resnet20", 7, 3, {"weight": np.ones(2)})
        try:
            assert (manifest.model_key, manifest.seed, manifest.training_epochs) == (
                "resnet20", 7, 3,
            )
            assert manifest.state.shm_name.startswith(SEGMENT_PREFIX)
        finally:
            handle.unlink()


class TestThreadBackendQuick:
    def test_thread_equals_serial_for_flip_sweep(self):
        spec = FlipSweepSpec(
            geometry=SMALL_GEOMETRY,
            hammer_counts=(50_000, 200_000),
            open_cycles=(5_000_000, 20_000_000),
            max_rows_per_bank=4,
        )
        serial = ExperimentRunner(backend=SerialBackend()).run(spec).payload
        threaded = ExperimentRunner(backend=ThreadPoolBackend(max_workers=3)).run(spec).payload
        assert np.array_equal(serial.rowhammer.flips, threaded.rowhammer.flips)
        assert np.array_equal(serial.rowpress.flips, threaded.rowpress.flips)

    def test_chunking_preserves_unit_order(self):
        spec = DefenseMatrixSpec(geometry=SMALL_GEOMETRY)
        serial = ExperimentRunner().run(spec).payload
        chunked = ExperimentRunner(
            backend=ThreadPoolBackend(max_workers=2, chunk_size=3)
        ).run(spec).payload
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

    def test_shared_memory_shipping_is_bit_identical_and_clean(self):
        """Victims attached from shared memory == victims trained locally."""
        spec = _tiny_comparison_spec()
        serial = ExperimentRunner(backend=SerialBackend()).run(spec).payload
        runner = ExperimentRunner(backend=ProcessPoolBackend(max_workers=2))
        shared = runner.run(spec).payload
        assert serial[0] == shared[0]
        # The parent trained the victim once to export it...
        assert runner.context.victims.stats()["misses"] == 1
        # ...and every segment was unlinked after the pool drained.
        assert not _segments()
        # Opting out of sharing (workers retrain) must change nothing.
        retrained = ExperimentRunner(
            backend=ProcessPoolBackend(max_workers=2, share_victims=False)
        ).run(spec).payload
        assert serial[0] == retrained[0]

    def test_thread_backend_attack_determinism(self):
        """The thread pool honours the same bit-identical contract."""
        spec = _tiny_comparison_spec()
        serial = ExperimentRunner(backend=SerialBackend()).run(spec).payload
        runner = ExperimentRunner(backend=ThreadPoolBackend(max_workers=3))
        threaded = runner.run(spec).payload
        assert serial[0] == threaded[0]
        assert serial[0].rowhammer.results == threaded[0].rowhammer.results
        assert serial[0].rowpress.results == threaded[0].rowpress.results
        # The runner's context trained the victim exactly once; worker
        # threads materialised their private copies from the seeded state.
        assert runner.context.victims.stats()["misses"] == 1

    def test_chunked_process_pool_is_bit_identical(self):
        spec = _tiny_comparison_spec()
        serial = ExperimentRunner(backend=SerialBackend()).run(spec).payload
        chunked = ExperimentRunner(
            backend=ProcessPoolBackend(max_workers=2, chunk_size=2)
        ).run(spec).payload
        assert serial[0] == chunked[0]
        assert not _segments()
