"""Chunk checkpointing: stable boundaries, atomic saves, resumed execution."""

import hashlib
import pickle
from concurrent.futures import Future

import pytest

import repro.experiments.runner as runner_module

from repro.dram.geometry import DramGeometry
from repro.experiments import (
    CheckpointedBackend,
    ChunkCheckpoint,
    DefenseMatrixSpec,
    ExperimentContext,
    ProcessPoolBackend,
    SerialBackend,
    checkpoint_chunks,
)
from repro.experiments.checkpoint import _CHUNK_MAGIC, ChaosWriteError
from repro.testing import chaos
from repro.testing.chaos import FaultPlan
from repro.utils.resilience import DeadlineExceeded

SMALL_GEOMETRY = DramGeometry(num_banks=1, rows_per_bank=24, cols_per_row=128)


def _cheap_spec(seed=11):
    return DefenseMatrixSpec(geometry=SMALL_GEOMETRY, chip_seed=seed)


class TestCheckpointChunks:
    def test_boundaries_depend_only_on_unit_count(self):
        units = list(range(40))
        assert checkpoint_chunks(units) == checkpoint_chunks(list(units))
        flat = [u for chunk in checkpoint_chunks(units) for u in chunk]
        assert flat == units

    def test_small_unit_counts_get_single_unit_chunks(self):
        assert [len(c) for c in checkpoint_chunks(list(range(5)))] == [1] * 5

    @pytest.mark.parametrize(
        "count, lengths",
        [
            (0, []),
            (1, [1]),
            (16, [1] * 16),
            (17, [1] * 17),
            (40, [2] * 20),
            (50, [3] * 16 + [2]),
            (1000, [62] * 16 + [8]),
        ],
    )
    def test_chunk_map_is_pinned(self, count, lengths):
        # Saved chunk files are keyed by chunk index: a changed map would
        # make every checkpoint on disk unusable on the next restart.
        units = list(range(count))
        chunks = checkpoint_chunks(units)
        assert [len(c) for c in chunks] == lengths
        assert [u for chunk in chunks for u in chunk] == units


class TestChunkCheckpoint:
    def test_save_load_round_trip(self, tmp_path):
        checkpoint = ChunkCheckpoint(tmp_path / "job")
        checkpoint.save_chunk(0, ["a", "b"])
        checkpoint.save_chunk(3, [{"x": 1}])
        assert checkpoint.load() == {0: ["a", "b"], 3: [{"x": 1}]}

    def test_truncated_file_is_skipped(self, tmp_path):
        checkpoint = ChunkCheckpoint(tmp_path / "job")
        checkpoint.save_chunk(0, ["ok"])
        blob = pickle.dumps(["torn"], protocol=pickle.HIGHEST_PROTOCOL)
        checkpoint.path_for(1).write_bytes(blob[: len(blob) // 2])
        assert checkpoint.load() == {0: ["ok"]}

    def test_clear_removes_everything(self, tmp_path):
        checkpoint = ChunkCheckpoint(tmp_path / "job")
        checkpoint.save_chunk(0, ["x"])
        checkpoint.clear()
        assert checkpoint.load() == {}
        assert not checkpoint.directory.exists()

    def test_foreign_owner_chunks_are_never_resumed(self, tmp_path):
        # A chunk stamped by another job (however it landed in this
        # directory) must rerun, not smuggle foreign outputs in.
        ChunkCheckpoint(tmp_path / "job", owner="job-a").save_chunk(0, ["a's"])
        mine = ChunkCheckpoint(tmp_path / "job", owner="job-b")
        assert mine.load() == {}
        mine.save_chunk(0, ["b's"])
        assert mine.load() == {0: ["b's"]}

    def test_untagged_checkpoint_accepts_any_owner(self, tmp_path):
        ChunkCheckpoint(tmp_path / "job", owner="job-a").save_chunk(0, ["x"])
        assert ChunkCheckpoint(tmp_path / "job").load() == {0: ["x"]}

    def test_framed_bare_outputs_payload_is_never_loaded(self, tmp_path):
        # A digest-valid file whose payload lacks the owner stamp is not
        # what the writer produces, so the owner check cannot vouch for it.
        checkpoint = ChunkCheckpoint(tmp_path / "job", owner="job-a")
        checkpoint.directory.mkdir(parents=True)
        blob = pickle.dumps(["bare"], protocol=pickle.HIGHEST_PROTOCOL)
        checkpoint.path_for(0).write_bytes(
            _CHUNK_MAGIC + hashlib.sha256(blob).digest() + blob
        )
        assert checkpoint.load() == {}

    def test_injected_partial_write_never_corrupts_a_checkpoint(self, tmp_path):
        checkpoint = ChunkCheckpoint(tmp_path / "job")
        checkpoint.save_chunk(0, ["first"])
        with chaos.active_plan(FaultPlan.single("checkpoint.write", "partial_write")):
            with pytest.raises(ChaosWriteError):
                checkpoint.save_chunk(0, ["second"])
        # The torn write hit the temp file only; the real file still holds
        # the previous complete outputs.
        assert checkpoint.load() == {0: ["first"]}


class _CountingBackend(SerialBackend):
    """Serial backend that records how many units each call executed."""

    def __init__(self):
        self.calls = []

    def run_units(self, spec, units, context):
        self.calls.append(len(units))
        return super().run_units(spec, units, context)


class TestCheckpointedBackend:
    def test_passthrough_without_checkpoint(self):
        inner = _CountingBackend()
        backend = CheckpointedBackend(inner)
        spec = _cheap_spec()
        units = spec.work_units()
        outputs = backend.run_units(spec, units, ExperimentContext())
        assert len(outputs) == len(units)
        assert inner.calls == [len(units)]  # one inner call, no chunking

    def test_matches_serial_and_is_durable(self, tmp_path):
        spec = _cheap_spec()
        units = spec.work_units()
        expected = SerialBackend().run_units(spec, units, ExperimentContext())

        checkpoint = ChunkCheckpoint(tmp_path / "job")
        backend = CheckpointedBackend(SerialBackend(), checkpoint=checkpoint)
        outputs = backend.run_units(spec, units, ExperimentContext())
        assert repr(outputs) == repr(expected)
        assert backend.last_resumed == 0
        assert backend.last_executed == len(checkpoint_chunks(units))
        assert len(checkpoint.load()) == len(checkpoint_chunks(units))

    def test_resume_skips_completed_chunks(self, tmp_path):
        spec = _cheap_spec()
        units = spec.work_units()
        checkpoint = ChunkCheckpoint(tmp_path / "job")

        # First attempt "dies" after two chunks: simulate by running only
        # those chunks through the checkpoint directly.
        chunks = checkpoint_chunks(units)
        context = ExperimentContext()
        for index in (0, 1):
            checkpoint.save_chunk(
                index, SerialBackend().run_units(spec, chunks[index], context)
            )

        inner = _CountingBackend()
        backend = CheckpointedBackend(inner, checkpoint=checkpoint)
        outputs = backend.run_units(spec, units, ExperimentContext())
        assert backend.last_resumed == 2
        assert backend.last_executed == len(chunks) - 2
        assert sum(inner.calls) == len(units) - len(chunks[0]) - len(chunks[1])
        expected = SerialBackend().run_units(spec, units, ExperimentContext())
        assert repr(outputs) == repr(expected)

    def test_stale_checkpoints_are_discarded(self, tmp_path):
        spec = _cheap_spec()
        units = spec.work_units()
        checkpoint = ChunkCheckpoint(tmp_path / "job")
        # A checkpoint from a different unit decomposition: wrong length.
        checkpoint.save_chunk(0, ["bogus", "bogus"])
        checkpoint.save_chunk(999, ["beyond the chunk map"])
        backend = CheckpointedBackend(SerialBackend(), checkpoint=checkpoint)
        outputs = backend.run_units(spec, units, ExperimentContext())
        assert backend.last_resumed == 0  # nothing stale was trusted
        expected = SerialBackend().run_units(spec, units, ExperimentContext())
        assert repr(outputs) == repr(expected)

    def test_headerless_chunk_file_is_rerun(self, tmp_path):
        # A bare pickle carries no digest and no owner stamp: even with the
        # right outputs for chunk 0 it is never resumed, only rerun.
        spec = _cheap_spec()
        units = spec.work_units()
        checkpoint = ChunkCheckpoint(tmp_path / "job", owner="job-a")
        checkpoint.directory.mkdir(parents=True)
        first_chunk = checkpoint_chunks(units)[0]
        outputs = SerialBackend().run_units(spec, first_chunk, ExperimentContext())
        checkpoint.path_for(0).write_bytes(pickle.dumps(outputs))
        backend = CheckpointedBackend(SerialBackend(), checkpoint=checkpoint)
        outputs = backend.run_units(spec, units, ExperimentContext())
        assert backend.last_resumed == 0
        assert backend.last_executed == len(checkpoint_chunks(units))
        expected = SerialBackend().run_units(spec, units, ExperimentContext())
        assert repr(outputs) == repr(expected)

    @pytest.mark.slow
    def test_resume_over_process_pool_matches_serial(self, tmp_path):
        # The process pool cuts units by the same rule, so chunks saved by
        # a serial run resume under it and the combined outputs agree.
        spec = _cheap_spec()
        units = spec.work_units()
        checkpoint = ChunkCheckpoint(tmp_path / "job", owner="job-a")
        first_chunk = checkpoint_chunks(units)[0]
        checkpoint.save_chunk(
            0, SerialBackend().run_units(spec, first_chunk, ExperimentContext())
        )
        backend = CheckpointedBackend(ProcessPoolBackend(max_workers=2), checkpoint=checkpoint)
        outputs = backend.run_units(spec, units, ExperimentContext())
        assert backend.last_resumed == 1
        assert backend.last_executed == len(checkpoint_chunks(units)) - 1
        expected = SerialBackend().run_units(spec, units, ExperimentContext())
        assert repr(outputs) == repr(expected)

    def test_deadline_cancels_the_pools_pending_chunks(self, tmp_path, monkeypatch):
        # A stand-in executor whose tasks run only when their result is
        # read, so the chunks still pending when the deadline fires are
        # observable.
        submitted = []

        class LazyFuture(Future):
            def __init__(self, fn, *args):
                super().__init__()
                self.call = (fn, args)

            def result(self, timeout=None):
                if not self.done():
                    fn, args = self.call
                    self.set_result(fn(*args))
                return super().result(timeout)

        class LazyExecutor:
            def __init__(self, max_workers, initializer, initargs):
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, payload, chunk):
                submitted.append(LazyFuture(fn, payload, chunk))
                return submitted[-1]

        class ExpiresAfter:
            def __init__(self, checks):
                self.checks = checks

            def check(self, what):
                if self.checks == 0:
                    raise DeadlineExceeded(what)
                self.checks -= 1

        monkeypatch.setattr(runner_module, "_WORKER_CONTEXT", None)
        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", LazyExecutor)
        spec = _cheap_spec()
        units = spec.work_units()
        checkpoint = ChunkCheckpoint(tmp_path / "job")
        backend = CheckpointedBackend(ProcessPoolBackend(max_workers=2), checkpoint=checkpoint)
        backend.deadline = ExpiresAfter(3)
        with pytest.raises(DeadlineExceeded):
            backend.run_units(spec, units, ExperimentContext())
        chunks = checkpoint_chunks(units)
        assert len(submitted) == len(chunks)
        assert sorted(checkpoint.load()) == [0, 1, 2]
        assert [future.cancelled() for future in submitted] == [False] * 3 + [True] * (len(chunks) - 3)

    def test_empty_units(self, tmp_path):
        backend = CheckpointedBackend(
            SerialBackend(), checkpoint=ChunkCheckpoint(tmp_path / "job")
        )
        assert backend.run_units(_cheap_spec(), [], ExperimentContext()) == []

    def test_checkpoint_and_deadline_bindings_are_thread_local(self, tmp_path):
        import threading

        backend = CheckpointedBackend(SerialBackend())
        backend.checkpoint = ChunkCheckpoint(tmp_path / "mine")
        seen = {}

        def probe():
            seen["checkpoint"] = backend.checkpoint  # unbound on this thread
            backend.checkpoint = ChunkCheckpoint(tmp_path / "other")

        thread = threading.Thread(target=probe)
        thread.start()
        thread.join()
        assert seen["checkpoint"] is None
        # The other thread's assignment never leaks into this thread.
        assert backend.checkpoint.directory == tmp_path / "mine"
