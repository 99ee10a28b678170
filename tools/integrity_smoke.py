#!/usr/bin/env python
"""Integrity smoke: fixed-seed corruption through the daemon (CI `integrity-smoke` job).

Runs a small-geometry defense matrix through the experiment daemon while a
deterministic :class:`~repro.testing.chaos.FaultPlan` flips a single bit at
each durable-write site (``corrupt`` kind), then checks the end-to-end
integrity guarantee: **every injected corruption is detected — never
silently served — and `repro fsck` converges the tree back to a state whose
surviving results are byte-identical to the fault-free serial run**.

Scenarios:

1. a clean daemon run produces zero fsck findings (no false positives —
   checksummed envelopes, queue journal lines and the health snapshot all
   verify);
2. a bit flipped in a committed result envelope fails the load-time digest,
   is quarantined by fsck, and the post-repair rerun restores serial bytes;
   after the daemon has listed that rerun's envelope (``results`` op), bit
   rot in place that keeps the file's size and mtime still fails its load;
3. a bit flipped in a chunk checkpoint is dropped at resume (the intact
   chunk still resumes) and the finished envelope matches serial exactly;
4. a bit flipped in an appended queue journal record is refused by a
   reloading queue and pinned by fsck to its line.

Runs in well under a minute; exits non-zero on the first violated
invariant.
"""

import os
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
    IntegrityError,
    JobQueue,
    ResultStore,
    checkpoint_chunks,
    fsck_queue,
    fsck_store,
)
from repro.testing import chaos
from repro.testing.chaos import FaultPlan, FaultSpec

#: One fixed seed per scenario: the spec (and therefore every expected
#: byte) is a pure function of the scenario's row in this matrix.
SCENARIO_SEEDS = {
    "clean-baseline": 31,
    "store-corrupt": 32,
    "checkpoint-corrupt": 33,
    "queue-corrupt": 34,
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


def _rot_in_place(path):
    """Change one payload digit in place, keeping the file's size and mtime."""
    stat = path.stat()
    text = path.read_text()
    start = text.index('"payload"')
    index = next(i for i in range(start, len(text)) if text[i].isdigit())
    digit = "2" if text[index] == "1" else "1"  # nonzero: never a leading zero
    path.write_text(text[:index] + digit + text[index + 1 :])
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))


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

        # 1. Clean daemon run: the verifier must report zero findings on an
        # undamaged tree — detection without false positives.
        seed = SCENARIO_SEEDS["clean-baseline"]
        service = ExperimentService(queue_dir=root / "q1", store_dir=root / "s1")
        service._dispatch({"op": "submit", "spec": _spec(seed).to_dict(), "name": "exp"})
        check(service.drain() == 1, "clean daemon run drains the job")
        health = service._dispatch({"op": "health"})
        snapshot = health.get("health", {})
        check(
            health.get("ok")
            and snapshot.get("queue", {}).get("pending") == 0
            and snapshot.get("queue", {}).get("done") == 1,
            "health snapshot reports an idle, reachable daemon",
        )
        store_report = fsck_store(root / "s1")
        queue_report = fsck_queue(root / "q1")
        check(
            store_report.clean and store_report.verified >= 1,
            "clean store fscks with zero findings",
        )
        check(
            queue_report.clean and queue_report.verified >= 1,
            "clean queue fscks with zero findings",
        )

        # 2. Corrupt store write through the daemon: the flipped bit commits
        # "successfully", so detection is the checksum's whole job.
        seed = SCENARIO_SEEDS["store-corrupt"]
        expected = _serial_bytes(root, seed)
        service = ExperimentService(queue_dir=root / "q2", store_dir=root / "s2")
        with chaos.active_plan(FaultPlan.single("store.write", "corrupt")) as scope:
            service._dispatch(
                {"op": "submit", "spec": _spec(seed).to_dict(), "name": "exp"}
            )
            service.drain()
        check(("store.write", "corrupt") in scope.fired, "store corrupt fault fired")
        try:
            service.store.load("exp")
            check(False, "corrupted envelope fails its load-time digest")
        except IntegrityError:
            check(True, "corrupted envelope fails its load-time digest")
        report = fsck_store(root / "s2", quarantine=True)
        mismatches = [i for i in report.issues if i.problem == "digest-mismatch"]
        check(
            len(mismatches) == 1 and mismatches[0].quarantined,
            "fsck quarantines the damaged envelope",
        )
        check(fsck_store(root / "s2").clean, "store is clean after quarantine")
        fresh = ResultStore(root / "s2")
        ExperimentRunner(store=fresh).run(_spec(seed), save_as="exp")
        check(
            fresh.path_for("exp").read_text() == expected,
            "post-repair rerun is byte-identical to serial",
        )
        listed = service._dispatch({"op": "results"})
        check(listed.get("names") == ["exp"], "daemon lists the repaired result")
        _rot_in_place(service.store.path_for("exp"))
        try:
            service.store.load("exp")
            check(False, "bit rot with size and mtime kept fails the next load")
        except IntegrityError:
            check(True, "bit rot with size and mtime kept fails the next load")

        # 3. Corrupt chunk checkpoint: the resume must drop the damaged
        # frame (resuming only the intact chunk) — a flipped bit can never
        # smuggle wrong values into a resumed job.
        seed = SCENARIO_SEEDS["checkpoint-corrupt"]
        expected = _serial_bytes(root, seed)
        service = ExperimentService(queue_dir=root / "q3", store_dir=root / "s3")
        plan = FaultPlan(
            faults=(
                FaultSpec(point="checkpoint.write", kind="corrupt", after=1, count=1),
                FaultSpec(point="service.chunk", kind="error", after=3, count=1),
            )
        )
        with chaos.active_plan(plan):
            service._dispatch(
                {"op": "submit", "spec": _spec(seed).to_dict(), "name": "exp"}
            )
            failed = service.process_once()
        check(
            failed is not None and failed.state == "failed",
            "injected chunk error fails the job",
        )
        kept = list((root / "q3" / "checkpoints").glob("*/chunk-*.pkl"))
        check(len(kept) == 2, "both completed chunks stay checkpointed")
        service._dispatch({"op": "submit", "spec": _spec(seed).to_dict(), "name": "exp"})
        with saved_chunks() as saved:
            check(service.drain() == 1, "resubmitted job runs")
        total = len(checkpoint_chunks(_spec(seed).work_units()))
        check(
            len(saved) == total - 1,
            "resume keeps the intact chunk and drops the corrupted one",
        )
        check(
            service.store.path_for("exp").read_text() == expected,
            "resumed job result is byte-identical to serial",
        )

        # 4. Corrupt queue persist: the damaged journal record must never
        # resurrect as runnable work.
        seed = SCENARIO_SEEDS["queue-corrupt"]
        queue = JobQueue(root / "q4")
        with chaos.active_plan(FaultPlan.single("queue.persist", "corrupt")) as scope:
            queue.submit(_spec(seed).to_dict())
        check(("queue.persist", "corrupt") in scope.fired, "queue corrupt fault fired")
        check(
            JobQueue(root / "q4").jobs() == [],
            "reloading queue refuses the corrupted record",
        )
        report = fsck_queue(root / "q4", quarantine=True)
        check(
            len(report.issues) == 1
            and report.issues[0].problem in ("digest-mismatch", "unreadable")
            and report.issues[0].line == 1,
            "fsck pins exactly the damaged journal line",
        )
        check(fsck_queue(root / "q4").clean, "queue is clean after quarantine")

    if failures:
        print(f"integrity smoke FAILED ({len(failures)} problem(s))")
        return 1
    print(
        "integrity smoke passed: every injected corruption detected, "
        "fsck converged back to serial bytes"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
