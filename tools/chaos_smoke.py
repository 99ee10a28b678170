#!/usr/bin/env python
"""Chaos smoke: a fixed-seed fault-plan matrix (CI `chaos-smoke` job).

Runs a small-geometry defense matrix through a matrix of deterministic
:class:`~repro.testing.chaos.FaultPlan` scenarios and checks the headline
resilience guarantee after every one of them: **an experiment that
survives a fault plan produces results byte-identical to the fault-free
serial run**, and nothing is left behind (torn envelopes, stale chunk
checkpoints).

Scenarios:

1. a result-store write torn mid-envelope (retry produces identical bytes);
2. a job-queue journal append torn mid-line (the previous record stays in
   force and the queue reloads consistently);
3. a chunk execution error mid-job in the daemon (job fails with kept
   checkpoints; the resubmission *resumes* instead of rerunning).

Runs in a few seconds; exits non-zero on the first violated invariant.
"""

import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.dram.geometry import DramGeometry
from repro.experiments import (
    ChunkCheckpoint,
    DefenseMatrixSpec,
    ExperimentRunner,
    ExperimentService,
    JobQueue,
    ResultStore,
    checkpoint_chunks,
)
from repro.experiments.queue import read_journal
from repro.testing import chaos
from repro.testing.chaos import FaultPlan

#: One fixed seed per scenario: the spec (and therefore every expected
#: byte) is a pure function of the scenario's row in this matrix.
SCENARIO_SEEDS = {
    "store-partial-write": 21,
    "queue-partial-write": 22,
    "service-checkpoint-resume": 23,
}


def _spec(seed):
    return DefenseMatrixSpec(
        geometry=DramGeometry(num_banks=1, rows_per_bank=24, cols_per_row=128),
        chip_seed=seed,
    )


def _serial_bytes(root, seed):
    store = ResultStore(root / f"serial-{seed}")
    ExperimentRunner(store=store).run(_spec(seed), save_as="exp")
    return store.path_for("exp").read_text()


@contextmanager
def saved_chunks():
    """Record the index of every chunk checkpoint saved inside the block."""
    saved = []
    save_chunk = ChunkCheckpoint.save_chunk

    def spy(self, index, outputs):
        saved.append(index)
        return save_chunk(self, index, outputs)

    ChunkCheckpoint.save_chunk = spy
    try:
        yield saved
    finally:
        ChunkCheckpoint.save_chunk = save_chunk


def main() -> int:
    failures = []

    def check(condition, label):
        print(("ok   " if condition else "FAIL ") + label)
        if not condition:
            failures.append(label)

    with tempfile.TemporaryDirectory() as raw:
        root = Path(raw)

        # 1. Torn store write: no corrupt envelope, retry identical.
        seed = SCENARIO_SEEDS["store-partial-write"]
        expected = _serial_bytes(root, seed)
        store = ResultStore(root / "torn")
        with chaos.active_plan(FaultPlan.single("store.write", "partial_write")):
            try:
                ExperimentRunner(store=store).run(_spec(seed), save_as="exp")
                check(False, "torn store write raises")
            except OSError:
                check(True, "torn store write raises")
        check(store.names() == [], "torn write commits no readable envelope")
        ExperimentRunner(store=store).run(_spec(seed), save_as="exp")
        check(
            store.path_for("exp").read_text() == expected,
            "store retry is byte-identical to serial",
        )

        # 2. Torn queue persist: the torn append is never applied.
        seed = SCENARIO_SEEDS["queue-partial-write"]
        queue = JobQueue(root / "queue")
        job, _ = queue.submit(_spec(seed).to_dict())
        before = [line.job for line in read_journal(queue.path)]
        with chaos.active_plan(FaultPlan.single("queue.persist", "partial_write")):
            try:
                queue.claim()
                check(False, "torn queue persist raises")
            except OSError:
                check(True, "torn queue persist raises")
        after = read_journal(queue.path)
        check(
            [line.problem for line in after] == ["", "torn"]
            and [line.job for line in after if line.job] == before,
            "torn persist leaves the previous record in force",
        )
        check(
            JobQueue(root / "queue").claim().job_id == job.job_id,
            "reloaded queue still serves the job",
        )
        check(
            read_journal(queue.path)[-1].job.state == "running",
            "the next append starts on a fresh line",
        )

        # 3. Daemon checkpoint resume: a mid-job failure keeps completed
        # chunks; the resubmitted job resumes them instead of rerunning.
        seed = SCENARIO_SEEDS["service-checkpoint-resume"]
        expected = _serial_bytes(root, seed)
        service = ExperimentService(queue_dir=root / "q3", store_dir=root / "s3")
        service._dispatch({"op": "submit", "spec": _spec(seed).to_dict(), "name": "exp"})
        with chaos.active_plan(FaultPlan.single("service.chunk", "error", after=3)):
            service.drain()
        (failed,) = service.queue.jobs()
        check(failed.state == "failed", "injected chunk error fails the job")
        kept = list((root / "q3" / "checkpoints").glob("*/chunk-*.pkl"))
        check(len(kept) == 2, "completed chunks stay checkpointed on failure")
        service._dispatch({"op": "submit", "spec": _spec(seed).to_dict(), "name": "exp"})
        with saved_chunks() as saved:
            check(service.drain() == 1, "resubmitted job runs")
        total = len(checkpoint_chunks(_spec(seed).work_units()))
        check(
            len(saved) == total - 2,
            "retry resumes the checkpointed chunks",
        )
        check(
            service.store.path_for("exp").read_text() == expected,
            "resumed job result is byte-identical to serial",
        )

    if failures:
        print(f"chaos smoke FAILED ({len(failures)} problem(s))")
        return 1
    print("chaos smoke passed: every fault plan recovered byte-identical to serial")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
