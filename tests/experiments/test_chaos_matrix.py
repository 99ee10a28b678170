"""Chaos matrix: injected faults must recover to byte-identical results.

Each scenario installs a deterministic :class:`FaultPlan`, runs a cheap
experiment through the faulted path, and asserts three things: the run
recovers (or detects the fault where that is the contract) and the
stored result is byte-identical to the fault-free serial run.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.dram.geometry import DramGeometry
from repro.experiments import (
    DefenseMatrixSpec,
    ExperimentRunner,
    ExperimentService,
    IntegrityError,
    JobQueue,
    ResultStore,
    checkpoint_chunks,
    fsck_queue,
    fsck_store,
)
from repro.testing import chaos
from repro.testing.chaos import ALLOW_CRASH_ENV, PLAN_ENV, FaultPlan, FaultSpec

SMALL_GEOMETRY = DramGeometry(num_banks=1, rows_per_bank=24, cols_per_row=128)

SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(autouse=True)
def _clean_chaos_state(monkeypatch):
    monkeypatch.delenv(PLAN_ENV, raising=False)
    monkeypatch.delenv(ALLOW_CRASH_ENV, raising=False)
    chaos.reset()
    yield
    chaos.reset()


def _cheap_spec(seed=11):
    return DefenseMatrixSpec(geometry=SMALL_GEOMETRY, chip_seed=seed)


def _serial_bytes(tmp_path, spec, name="exp"):
    """The stored envelope text of a fault-free serial run."""
    store = ResultStore(tmp_path / "serial")
    ExperimentRunner(store=store).run(spec, save_as=name)
    return store.path_for(name).read_text()


class TestInterruptedStoreWrite:
    def test_partial_sharded_write_leaves_no_torn_envelope(self, tmp_path):
        """A torn first store write must never commit an envelope.

        The first save attempt fails mid-write (temp file only); the store
        directory holds no readable result.  The retry writes the same
        bytes a fault-free run stores.
        """
        spec = _cheap_spec(seed=5)
        expected = _serial_bytes(tmp_path, spec)
        store = ResultStore(tmp_path / "torn")
        runner = ExperimentRunner(store=store)
        with chaos.active_plan(FaultPlan.single("store.write", "partial_write")):
            with pytest.raises(OSError):
                runner.run(spec, save_as="exp")
        assert store.names() == []  # nothing readable was committed
        runner.run(spec, save_as="exp")
        assert store.path_for("exp").read_text() == expected

    def test_partial_flat_write_preserves_previous_envelope(self, tmp_path):
        """An overwrite that tears mid-write keeps the old envelope intact."""
        store = ResultStore(tmp_path / "flat")
        runner = ExperimentRunner(store=store)
        runner.run(_cheap_spec(seed=5), save_as="exp")
        before = store.path_for("exp").read_text()
        with chaos.active_plan(FaultPlan.single("store.write", "partial_write")):
            with pytest.raises(OSError):
                ExperimentRunner(store=store).run(_cheap_spec(seed=6), save_as="exp")
        assert store.path_for("exp").read_text() == before


@pytest.mark.slow
class TestDaemonSigkillMidJob:
    def test_restart_resumes_from_chunk_checkpoints(self, tmp_path, spy_chunk_saves):
        """SIGKILL the daemon mid-job; the restart must resume, not rerun.

        A driver process runs the daemon executor with a chaos ``delay``
        on every ``service.chunk``, widening the kill window.  Once the
        first chunk checkpoint lands on disk the driver is SIGKILLed.  A
        fresh service over the same directories requeues the interrupted
        job (queue recovery), resumes the completed chunks from their
        checkpoints (it saves fewer chunks than the job has) and finishes
        — byte-identical to the fault-free serial run.
        """
        spec = _cheap_spec(seed=7)
        expected = _serial_bytes(tmp_path, spec)
        queue_dir = tmp_path / "queue"
        store_dir = tmp_path / "store"
        driver = textwrap.dedent(
            """
            import sys
            from repro.dram.geometry import DramGeometry
            from repro.experiments import DefenseMatrixSpec, ExperimentService

            spec = DefenseMatrixSpec(
                geometry=DramGeometry(num_banks=1, rows_per_bank=24, cols_per_row=128),
                chip_seed=7,
            )
            service = ExperimentService(queue_dir=sys.argv[1], store_dir=sys.argv[2])
            service._dispatch({"op": "submit", "spec": spec.to_dict(), "name": "exp"})
            service.process_once()
            """
        )
        plan = FaultPlan.single("service.chunk", "delay", delay=0.25, count=10_000)
        env = {
            **os.environ,
            "PYTHONPATH": SRC,
            PLAN_ENV: plan.to_json(),
        }
        process = subprocess.Popen(
            [sys.executable, "-c", driver, str(queue_dir), str(store_dir)], env=env
        )
        try:
            checkpoint_root = queue_dir / "checkpoints"
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if list(checkpoint_root.glob("*/chunk-*.pkl")):
                    break
                if process.poll() is not None:
                    pytest.fail("driver finished before it could be killed")
                time.sleep(0.02)
            else:
                pytest.fail("no chunk checkpoint appeared within 60s")
            os.kill(process.pid, signal.SIGKILL)
            process.wait(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)

        service = ExperimentService(queue_dir=queue_dir, store_dir=store_dir)
        # The interrupted job was requeued by queue recovery, not lost.
        assert len(service.recovery["requeued"]) == 1
        saved = spy_chunk_saves()
        assert service.drain() == 1
        assert len(saved) < len(checkpoint_chunks(spec.work_units()))
        (job,) = service.queue.jobs()
        assert job.state == "done"
        assert service.store.path_for("exp").read_text() == expected
        # Finished jobs leave no checkpoint residue behind.
        assert list((queue_dir / "checkpoints").glob("*/chunk-*.pkl")) == []


class TestSilentCorruption:
    """Closure for the ``corrupt`` kind: a single flipped bit injected at
    any durable-write site is always *detected* — never silently served —
    and recovery converges back to the fault-free serial bytes."""

    def test_corrupt_store_write_is_detected_and_repaired(self, tmp_path):
        """Silent bit-rot in a stored envelope can never be loaded.

        The corrupt fault flips one bit of the committed result file and
        the write still "succeeds" — the failure mode checksums exist
        for.  Loading fails the digest, fsck flags exactly the damaged
        file (zero false positives), and the rerun after quarantine
        stores the fault-free serial bytes.
        """
        spec = _cheap_spec(seed=13)
        expected = _serial_bytes(tmp_path, spec)
        store = ResultStore(tmp_path / "flat")
        with chaos.active_plan(FaultPlan.single("store.write", "corrupt")) as scope:
            ExperimentRunner(store=store).run(spec, save_as="exp")
        assert ("store.write", "corrupt") in scope.fired
        with pytest.raises(IntegrityError, match="digest mismatch"):
            store.load("exp")
        report = fsck_store(tmp_path / "flat", quarantine=True)
        assert [issue.problem for issue in report.issues] == ["digest-mismatch"]
        assert report.issues[0].quarantined
        assert fsck_store(tmp_path / "flat").clean
        fresh = ResultStore(tmp_path / "flat")
        ExperimentRunner(store=fresh).run(spec, save_as="exp")
        assert fresh.path_for("exp").read_text() == expected

    def test_corrupt_checkpoint_is_dropped_and_rerun(self, tmp_path, spy_chunk_saves):
        """A corrupted chunk checkpoint must rerun, not poison the resume.

        The plan corrupts the first chunk's checkpoint file and then
        errors the job at its third chunk.  The resubmission resumes only
        the chunk whose checksum frame still verifies (it saves all chunks
        but one), silently reruns the corrupted one, and the final envelope
        is byte-identical to serial — a flipped bit can never smuggle
        wrong values into a resumed job.
        """
        spec = _cheap_spec(seed=14)
        expected = _serial_bytes(tmp_path, spec)
        service = ExperimentService(
            queue_dir=tmp_path / "queue", store_dir=tmp_path / "store"
        )
        plan = FaultPlan(
            faults=(
                FaultSpec(point="checkpoint.write", kind="corrupt", after=1, count=1),
                FaultSpec(point="service.chunk", kind="error", after=3, count=1),
            )
        )
        with chaos.active_plan(plan):
            service._dispatch({"op": "submit", "spec": spec.to_dict(), "name": "exp"})
            failed = service.process_once()
        assert failed.state == "failed"
        # Both completed chunks were checkpointed; one carries the flip.
        kept = list((tmp_path / "queue" / "checkpoints").glob("*/chunk-*.pkl"))
        assert len(kept) == 2
        service._dispatch({"op": "submit", "spec": spec.to_dict(), "name": "exp"})
        saved = spy_chunk_saves()
        assert service.drain() == 1
        # Only the intact chunk is resumed; every other chunk is saved anew.
        assert len(saved) == len(checkpoint_chunks(spec.work_units())) - 1
        assert service.store.path_for("exp").read_text() == expected

    def test_corrupt_queue_persist_never_resurrects_the_job(self, tmp_path):
        """A corrupted journal record is refused on reload and pinned by fsck."""
        queue = JobQueue(tmp_path / "queue")
        with chaos.active_plan(FaultPlan.single("queue.persist", "corrupt")) as scope:
            queue.submit(_cheap_spec(seed=15).to_dict())
        assert ("queue.persist", "corrupt") in scope.fired
        # A reloading daemon refuses the tampered record entirely...
        assert JobQueue(tmp_path / "queue").jobs() == []
        # ...and fsck flags exactly that line, then repairs the journal.
        report = fsck_queue(tmp_path / "queue", quarantine=True)
        assert len(report.issues) == 1
        assert report.issues[0].problem in ("digest-mismatch", "unreadable")
        assert fsck_queue(tmp_path / "queue").clean


class TestFaultToleranceInProcess:
    def test_queue_persist_fault_keeps_previous_job_file(self, tmp_path):
        from repro.experiments.queue import JobQueue, read_journal

        queue = JobQueue(tmp_path / "queue")
        job, _ = queue.submit(_cheap_spec(seed=12).to_dict())
        before = [line.job for line in read_journal(queue.path)]
        with chaos.active_plan(FaultPlan.single("queue.persist", "partial_write")):
            with pytest.raises(OSError):
                queue.claim()
        # The torn append is never applied: the pre-claim record stays the
        # job's last verified one.
        after = read_journal(queue.path)
        assert [line.problem for line in after] == ["", "torn"]
        assert [line.job for line in after if line.job] == before
        # A reloaded queue sees a consistent (pending) job and can claim it.
        recovered = JobQueue(tmp_path / "queue")
        assert recovered.get(job.job_id).state == "pending"
        assert recovered.claim().job_id == job.job_id
