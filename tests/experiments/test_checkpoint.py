"""Chunk checkpointing: stable boundaries, atomic saves, resumed execution."""

import hashlib
import pickle
from concurrent.futures import Future

import pytest

import repro.experiments.runner as runner_module

from repro.dram.geometry import DramGeometry
from repro.experiments import (
    ChunkCheckpoint,
    DefenseMatrixSpec,
    ExperimentContext,
    ExperimentRunner,
    ProcessPoolBackend,
    ResultStore,
    SerialBackend,
    checkpoint_chunks,
)
from repro.experiments.checkpoint import _CHUNK_MAGIC, ChaosWriteError
from repro.testing import chaos
from repro.testing.chaos import ChaosError, FaultPlan, FaultSpec
from repro.utils.resilience import Deadline, DeadlineExceeded

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

    def test_saved_file_is_magic_digest_and_pickled_payload(self, tmp_path):
        # The on-disk framing is pinned: a changed layout would make every
        # checkpoint an older build wrote unresumable.
        checkpoint = ChunkCheckpoint(tmp_path / "job", owner="job-a")
        path = checkpoint.save_chunk(2, ["x", 1.5])
        blob = pickle.dumps(
            {"owner": "job-a", "outputs": ["x", 1.5]}, protocol=pickle.HIGHEST_PROTOCOL
        )
        assert path == checkpoint.path_for(2)
        assert path.name == "chunk-000002.pkl"
        assert path.read_bytes() == _CHUNK_MAGIC + hashlib.sha256(blob).digest() + blob

    def test_resumable_keeps_in_range_chunks_of_matching_length(self, tmp_path):
        checkpoint = ChunkCheckpoint(tmp_path / "job")
        chunks = [[1, 2], [3, 4], [5]]
        checkpoint.save_chunk(0, ["a", "b"])
        checkpoint.save_chunk(1, ["c"])  # chunk 1 has two units
        checkpoint.save_chunk(2, ["e"])
        checkpoint.save_chunk(3, ["f"])  # beyond the chunk map
        assert checkpoint.resumable(chunks) == {0: ["a", "b"], 2: ["e"]}
        assert sorted(checkpoint.load()) == [0, 1, 2, 3]  # nothing deleted

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
    """Serial backend that records how many units each call was handed."""

    def __init__(self):
        self.calls = []

    def run_chunks(self, spec, chunks, context):
        self.calls.append(sum(len(chunk) for chunk in chunks))
        return super().run_chunks(spec, chunks, context)


def _unit_outputs(spec, units):
    context = ExperimentContext()
    return [spec.run_unit(unit, context) for unit in units]


def _count_unit_runs(monkeypatch, spec):
    """Record every unit ``spec``'s class runs from now on."""
    ran = []
    run_unit = type(spec).run_unit

    def counting(self, unit, context):
        ran.append(unit)
        return run_unit(self, unit, context)

    monkeypatch.setattr(type(spec), "run_unit", counting)
    return ran


def _checkpointed_outputs(checkpoint):
    """Every output the checkpoint holds, flattened in chunk order."""
    return [output for _, outputs in sorted(checkpoint.load().items()) for output in outputs]


class TestCheckpointedRun:
    """``ExperimentRunner.run(checkpoint=, deadline=)``: resume, save, stop."""

    def test_without_checkpoint_runs_every_unit_in_one_backend_call(self, spy_chunk_saves):
        inner = _CountingBackend()
        spec = _cheap_spec()
        units = spec.work_units()
        saved = spy_chunk_saves()
        result = ExperimentRunner(backend=inner).run(spec)
        assert inner.calls == [len(units)]  # one backend call carries every chunk
        assert saved == []
        assert repr(result.payload) == repr(
            spec.combine(units, _unit_outputs(spec, units))
        )

    def test_serial_backend_runs_one_chunk_per_request(self, monkeypatch):
        spec = _cheap_spec()
        chunks = checkpoint_chunks(spec.work_units())
        ran = _count_unit_runs(monkeypatch, spec)
        results = SerialBackend().run_chunks(spec, chunks, ExperimentContext())
        assert ran == []
        first = next(results)
        assert ran == list(chunks[0]) and len(first) == len(chunks[0])
        next(results)
        assert ran == list(chunks[0]) + list(chunks[1])
        results.close()

    def test_spent_deadline_runs_and_saves_no_chunk(self, tmp_path, monkeypatch, spy_chunk_saves):
        spec = _cheap_spec()
        checkpoint = ChunkCheckpoint(tmp_path / "job")
        ran = _count_unit_runs(monkeypatch, spec)
        saved = spy_chunk_saves()
        with pytest.raises(DeadlineExceeded):
            ExperimentRunner().run(spec, checkpoint=checkpoint, deadline=Deadline(0.0))
        assert ran == []
        assert saved == []
        assert checkpoint.load() == {}

    def test_chunk_fault_keeps_the_chunks_saved_before_it(self, tmp_path, spy_chunk_saves):
        # The third chunk's fault point fails the run; the retry resumes the
        # two chunks the first attempt saved and reruns only the rest.
        spec = _cheap_spec()
        chunks = checkpoint_chunks(spec.work_units())
        checkpoint = ChunkCheckpoint(tmp_path / "job", owner="job-a")
        with chaos.active_plan(FaultPlan.single("service.chunk", "error", after=3)):
            with pytest.raises(ChaosError):
                ExperimentRunner().run(spec, checkpoint=checkpoint)
        assert sorted(checkpoint.load()) == [0, 1]
        saved = spy_chunk_saves()
        result = ExperimentRunner().run(spec, checkpoint=checkpoint)
        assert saved == list(range(2, len(chunks)))
        assert repr(result.payload) == repr(ExperimentRunner().run(spec).payload)

    def test_chunk_fault_point_fires_once_per_missing_chunk(self, tmp_path):
        spec = _cheap_spec()
        chunks = checkpoint_chunks(spec.work_units())
        checkpoint = ChunkCheckpoint(tmp_path / "job")
        for index in (0, 3):
            checkpoint.save_chunk(index, _unit_outputs(spec, chunks[index]))
        every_chunk = FaultPlan(
            faults=(FaultSpec(point="service.chunk", kind="delay", count=len(chunks) + 1),)
        )
        with chaos.active_plan(every_chunk) as plan:
            ExperimentRunner().run(spec, checkpoint=checkpoint)
        assert plan.fired == [("service.chunk", "delay")] * (len(chunks) - 2)

    def test_checkpointed_run_stores_the_bytes_of_a_plain_run(self, tmp_path):
        spec = _cheap_spec()
        chunks = checkpoint_chunks(spec.work_units())
        checkpoint = ChunkCheckpoint(tmp_path / "job", owner="job-a")
        checkpoint.save_chunk(1, _unit_outputs(spec, chunks[1]))
        plain = ResultStore(tmp_path / "plain")
        resumed = ResultStore(tmp_path / "resumed")
        ExperimentRunner(store=plain).run(spec, save_as="dmx")
        ExperimentRunner(store=resumed).run(spec, save_as="dmx", checkpoint=checkpoint)
        assert resumed.path_for("dmx").read_bytes() == plain.path_for("dmx").read_bytes()

    def test_matches_serial_and_is_durable(self, tmp_path, spy_chunk_saves):
        spec = _cheap_spec()
        units = spec.work_units()
        expected = ExperimentRunner().run(spec).payload

        checkpoint = ChunkCheckpoint(tmp_path / "job")
        saved = spy_chunk_saves()
        result = ExperimentRunner().run(spec, checkpoint=checkpoint)
        assert repr(result.payload) == repr(expected)
        assert saved == list(range(len(checkpoint_chunks(units))))  # nothing resumed
        assert len(checkpoint.load()) == len(checkpoint_chunks(units))
        assert repr(_checkpointed_outputs(checkpoint)) == repr(_unit_outputs(spec, units))

    def test_resume_skips_completed_chunks(self, tmp_path, spy_chunk_saves):
        spec = _cheap_spec()
        units = spec.work_units()
        checkpoint = ChunkCheckpoint(tmp_path / "job")

        # First attempt "dies" after two chunks: simulate by running only
        # those chunks through the checkpoint directly.
        chunks = checkpoint_chunks(units)
        for index in (0, 1):
            checkpoint.save_chunk(index, _unit_outputs(spec, chunks[index]))

        inner = _CountingBackend()
        saved = spy_chunk_saves()
        result = ExperimentRunner(backend=inner).run(spec, checkpoint=checkpoint)
        assert saved == list(range(2, len(chunks)))
        assert sum(inner.calls) == len(units) - len(chunks[0]) - len(chunks[1])
        assert repr(result.payload) == repr(ExperimentRunner().run(spec).payload)
        assert repr(_checkpointed_outputs(checkpoint)) == repr(_unit_outputs(spec, units))

    def test_stale_checkpoints_are_discarded(self, tmp_path, spy_chunk_saves):
        spec = _cheap_spec()
        units = spec.work_units()
        checkpoint = ChunkCheckpoint(tmp_path / "job")
        # A checkpoint from a different unit decomposition: wrong length.
        checkpoint.save_chunk(0, ["bogus", "bogus"])
        checkpoint.save_chunk(999, ["beyond the chunk map"])
        saved = spy_chunk_saves()
        result = ExperimentRunner().run(spec, checkpoint=checkpoint)
        assert saved == list(range(len(checkpoint_chunks(units))))  # nothing stale was trusted
        assert repr(result.payload) == repr(ExperimentRunner().run(spec).payload)

    def test_negative_chunk_index_is_never_resumed(self, tmp_path, spy_chunk_saves):
        # ``chunk--00001.pkl`` parses as index -1, and the last chunk's
        # outputs have the length ``chunks[-1]`` expects: the index range
        # check alone keeps it out of the resume.
        spec = _cheap_spec()
        units = spec.work_units()
        chunks = checkpoint_chunks(units)
        checkpoint = ChunkCheckpoint(tmp_path / "job", owner="job-a")
        checkpoint.save_chunk(-1, _unit_outputs(spec, chunks[-1]))
        assert -1 in checkpoint.load()
        assert checkpoint.resumable(chunks) == {}
        saved = spy_chunk_saves()
        result = ExperimentRunner().run(spec, checkpoint=checkpoint)
        assert saved == list(range(len(chunks)))
        assert repr(result.payload) == repr(ExperimentRunner().run(spec).payload)

    def test_headerless_chunk_file_is_rerun(self, tmp_path, spy_chunk_saves):
        # A bare pickle carries no digest and no owner stamp: even with the
        # right outputs for chunk 0 it is never resumed, only rerun.
        spec = _cheap_spec()
        units = spec.work_units()
        checkpoint = ChunkCheckpoint(tmp_path / "job", owner="job-a")
        checkpoint.directory.mkdir(parents=True)
        first_chunk = checkpoint_chunks(units)[0]
        checkpoint.path_for(0).write_bytes(pickle.dumps(_unit_outputs(spec, first_chunk)))
        saved = spy_chunk_saves()
        result = ExperimentRunner().run(spec, checkpoint=checkpoint)
        assert saved == list(range(len(checkpoint_chunks(units))))
        assert repr(result.payload) == repr(ExperimentRunner().run(spec).payload)
        assert repr(_checkpointed_outputs(checkpoint)) == repr(_unit_outputs(spec, units))

    @pytest.mark.slow
    def test_resume_over_process_pool_matches_serial(self, tmp_path, spy_chunk_saves):
        # The process pool cuts units by the same rule, so chunks saved by
        # a serial run resume under it and the combined outputs agree.
        spec = _cheap_spec()
        units = spec.work_units()
        checkpoint = ChunkCheckpoint(tmp_path / "job", owner="job-a")
        first_chunk = checkpoint_chunks(units)[0]
        checkpoint.save_chunk(0, _unit_outputs(spec, first_chunk))
        saved = spy_chunk_saves()
        runner = ExperimentRunner(backend=ProcessPoolBackend(max_workers=2))
        result = runner.run(spec, checkpoint=checkpoint)
        assert saved == list(range(1, len(checkpoint_chunks(units))))
        assert repr(result.payload) == repr(ExperimentRunner().run(spec).payload)
        assert repr(_checkpointed_outputs(checkpoint)) == repr(_unit_outputs(spec, units))

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
        runner = ExperimentRunner(backend=ProcessPoolBackend(max_workers=2))
        with pytest.raises(DeadlineExceeded):
            runner.run(spec, checkpoint=checkpoint, deadline=ExpiresAfter(3))
        chunks = checkpoint_chunks(units)
        assert len(submitted) == len(chunks)
        assert sorted(checkpoint.load()) == [0, 1, 2]
        assert [future.cancelled() for future in submitted] == [False] * 3 + [True] * (len(chunks) - 3)

    def test_results_are_closed_before_the_deadline_error_leaves(self):
        # The runner closes the backend's iterator itself; nothing is left
        # for garbage collection to finish.
        events = []

        class Recording(SerialBackend):
            def run_chunks(self, spec, chunks, context):
                try:
                    yield from super().run_chunks(spec, chunks, context)
                finally:
                    events.append("closed")

        class ExpiresAfter:
            def __init__(self, checks):
                self.checks = checks

            def check(self, what):
                if self.checks == 0:
                    events.append("expired")
                    raise DeadlineExceeded(what)
                self.checks -= 1

        runner = ExperimentRunner(backend=Recording())
        with pytest.raises(DeadlineExceeded):
            runner.run(_cheap_spec(), deadline=ExpiresAfter(2))
        assert events == ["expired", "closed"]

    @pytest.mark.parametrize("backend", [SerialBackend(), ProcessPoolBackend(max_workers=2)])
    def test_empty_units(self, tmp_path, backend):
        spec = DefenseMatrixSpec(geometry=SMALL_GEOMETRY, defenses=())
        assert spec.work_units() == []
        checkpoint = ChunkCheckpoint(tmp_path / "job")
        result = ExperimentRunner(backend=backend).run(spec, checkpoint=checkpoint)
        assert result.payload == {}
        assert checkpoint.load() == {}
