"""JobQueue: dedup, FIFO, journal persistence, and requeue-exactly-once recovery."""

import hashlib
import json
import os

import pytest

from repro.experiments import ComparisonSpec, DefenseMatrixSpec, JobQueue, QueueFullError
from repro.experiments.queue import JOURNAL_FILE, Job, read_journal


def _payload(seed=0):
    return ComparisonSpec(seed=seed).to_dict()


def _records(directory):
    """The journal's lines, parsed as plain JSON."""
    return [json.loads(line) for line in (directory / JOURNAL_FILE).read_text().splitlines()]


class TestJobRoundTrip:
    def test_job_dict_round_trip(self):
        job = Job(job_id="abc", name="x", spec=_payload(), state="running",
                  sequence=3, attempts=2, requeued=True, error="boom")
        assert Job.from_dict(job.to_dict()) == job


class TestSubmit:
    def test_submit_persists_and_names(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, created = queue.submit(_payload())
        assert created
        assert job.state == "pending"
        assert job.name.startswith("comparison-")
        (on_disk,) = _records(tmp_path)
        assert on_disk["job_id"] == job.job_id
        assert on_disk["spec"]["kind"] == "comparison"

    def test_duplicate_spec_deduplicates(self, tmp_path):
        queue = JobQueue(tmp_path)
        first, created_first = queue.submit(_payload())
        second, created_second = queue.submit(_payload())
        assert created_first and not created_second
        assert second is first
        assert len(queue) == 1

    def test_duplicate_submission_updates_priority_and_deadline(self, tmp_path):
        # Deduplicated, not ignored: resubmitting is how an operator
        # raises a queued job's priority or attaches a deadline.
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_payload())
        assert job.priority == 0 and job.deadline is None
        again, created = queue.submit(_payload(), priority=5, deadline=1e12)
        assert not created and again is job
        assert job.priority == 5 and job.deadline == 1e12
        # The QoS update is persisted, not in-memory only.
        reloaded = JobQueue(tmp_path).get(job.job_id)
        assert reloaded.priority == 5 and reloaded.deadline == 1e12

    def test_different_specs_are_different_jobs(self, tmp_path):
        queue = JobQueue(tmp_path)
        a, _ = queue.submit(_payload(seed=1))
        b, _ = queue.submit(_payload(seed=2))
        assert a.job_id != b.job_id
        assert len(queue) == 2

    def test_done_job_still_deduplicates(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_payload())
        queue.claim()
        queue.complete(job.job_id)
        again, created = queue.submit(_payload())
        assert not created
        assert again.state == "done"

    def test_failed_job_is_reactivated(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_payload())
        queue.claim()
        queue.fail(job.job_id, "boom")
        again, created = queue.submit(_payload())
        assert created
        assert again.state == "pending"
        assert again.attempts == 0 and again.error is None


class TestAdmissionControl:
    def test_submit_past_the_bound_raises_queue_full(self, tmp_path):
        queue = JobQueue(tmp_path, max_pending=2)
        queue.submit(_payload(seed=1))
        queue.submit(_payload(seed=2))
        with pytest.raises(QueueFullError) as excinfo:
            queue.submit(_payload(seed=3))
        assert excinfo.value.pending == 2 and excinfo.value.max_pending == 2
        assert len(queue) == 2  # the shed job was never persisted

    def test_duplicate_submission_is_admitted_when_full(self, tmp_path):
        # Dedup resubmissions add no load: they must not be shed.
        queue = JobQueue(tmp_path, max_pending=1)
        job, _ = queue.submit(_payload(seed=1))
        again, created = queue.submit(_payload(seed=1))
        assert not created and again is job

    def test_claiming_frees_capacity(self, tmp_path):
        queue = JobQueue(tmp_path, max_pending=1)
        queue.submit(_payload(seed=1))
        queue.claim()
        job, created = queue.submit(_payload(seed=2))  # pending is empty again
        assert created and job.state == "pending"


class TestPriorityAndDeadline:
    def test_higher_priority_claims_first(self, tmp_path):
        queue = JobQueue(tmp_path)
        low, _ = queue.submit(_payload(seed=1), priority=0)
        high, _ = queue.submit(_payload(seed=2), priority=5)
        mid, _ = queue.submit(_payload(seed=3), priority=2)
        order = [queue.claim().job_id for _ in range(3)]
        assert order == [high.job_id, mid.job_id, low.job_id]

    def test_equal_priority_stays_fifo(self, tmp_path):
        queue = JobQueue(tmp_path)
        first, _ = queue.submit(_payload(seed=1), priority=1)
        second, _ = queue.submit(_payload(seed=2), priority=1)
        assert queue.claim().job_id == first.job_id
        assert queue.claim().job_id == second.job_id

    def test_priority_survives_restart(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(_payload(seed=1), priority=0)
        high, _ = queue.submit(_payload(seed=2), priority=9)
        assert JobQueue(tmp_path).claim().job_id == high.job_id

    def test_expired_deadline_fails_fast_at_claim(self, tmp_path):
        now = [100.0]
        queue = JobQueue(tmp_path, clock=lambda: now[0])
        doomed, _ = queue.submit(_payload(seed=1), deadline=105.0)
        fine, _ = queue.submit(_payload(seed=2))
        now[0] = 110.0  # past doomed's absolute deadline
        claimed = queue.claim()
        assert claimed.job_id == fine.job_id
        failed = queue.get(doomed.job_id)
        assert failed.state == "failed"
        assert "deadline expired" in failed.error

    def test_unexpired_deadline_claims_normally(self, tmp_path):
        now = [100.0]
        queue = JobQueue(tmp_path, clock=lambda: now[0])
        job, _ = queue.submit(_payload(seed=1), deadline=105.0)
        assert queue.claim().job_id == job.job_id


class TestJobChecksums:
    def test_job_file_carries_checksum(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(_payload())
        raw = (tmp_path / JOURNAL_FILE).read_bytes()
        assert raw.endswith(b"\n") and raw.count(b"\n") == 1
        record = json.loads(raw)
        stored = record.pop("sha256")
        canonical = json.dumps(record, separators=(",", ":"))
        assert stored == hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        # The line is the compact record, digest last; the spec keeps its
        # submitted key order (it reaches the stored result bytes).
        assert raw == (canonical[:-1] + f',"sha256":"{stored}"}}\n').encode("utf-8")
        assert list(record["spec"]) == list(_payload())

    def test_corrupt_job_file_is_skipped_and_reported(self, tmp_path):
        # A tampered record is never applied: its job keeps the state of
        # its last verified record, and the line is reported.
        queue = JobQueue(tmp_path)
        claimed, _ = queue.submit(_payload(seed=1))
        other, _ = queue.submit(_payload(seed=2))
        queue.claim()
        path = tmp_path / JOURNAL_FILE
        lines = path.read_text().splitlines(keepends=True)
        assert json.loads(lines[2])["state"] == "running"
        lines[2] = lines[2].replace('"state":"running"', '"state":"done"')
        path.write_text("".join(lines))
        reloaded = JobQueue(tmp_path)
        assert reloaded.get(claimed.job_id).state == "pending"
        assert reloaded.get(other.job_id).state == "pending"
        assert [(line.number, line.problem) for line in reloaded.corrupt_lines] == [
            (3, "digest-mismatch")
        ]
        # Bad lines are evidence for fsck: the load never compacts them away.
        assert path.read_text().count("\n") == 3


class TestJournal:
    @pytest.fixture
    def renames(self, monkeypatch):
        calls = []
        real = os.replace

        def counting(src, dst):
            calls.append((src, dst))
            real(src, dst)

        monkeypatch.setattr(os, "replace", counting)
        return calls

    def test_state_changes_append_without_renames(self, tmp_path, renames):
        queue = JobQueue(tmp_path)
        done, _ = queue.submit(_payload(seed=1))
        failed, _ = queue.submit(_payload(seed=2))
        cancelled, _ = queue.submit(_payload(seed=3))
        queue.claim()
        queue.complete(done.job_id)
        queue.claim()
        queue.fail(failed.job_id, "boom")
        queue.cancel(cancelled.job_id)
        assert renames == []
        assert len(_records(tmp_path)) == 8  # 3 submits + 5 transitions

    def test_reopening_compacts_superseded_records_once(self, tmp_path, renames):
        queue = JobQueue(tmp_path)
        first, _ = queue.submit(_payload(seed=1))
        second, _ = queue.submit(_payload(seed=2))
        queue.claim()
        queue.complete(first.job_id)
        reopened = JobQueue(tmp_path)
        assert len(renames) == 1
        records = _records(tmp_path)
        assert [(r["job_id"], r["state"]) for r in records] == [
            (first.job_id, "done"),
            (second.job_id, "pending"),
        ]
        assert reopened.get(first.job_id).state == "done"
        JobQueue(tmp_path)  # already compact: no second rename
        assert len(renames) == 1

    def test_torn_last_line_is_skipped_and_next_append_starts_fresh(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_payload())
        path = tmp_path / JOURNAL_FILE
        whole = path.read_bytes()
        with open(path, "ab") as handle:  # a crash mid-append
            handle.write(whole[: len(whole) // 2])
        reloaded = JobQueue(tmp_path)
        assert [line.problem for line in reloaded.corrupt_lines] == ["torn"]
        assert reloaded.claim().job_id == job.job_id
        lines = read_journal(path)
        assert [line.problem for line in lines] == ["", "unreadable", ""]
        assert lines[-1].job.state == "running"
        assert JobQueue(tmp_path).get(job.job_id).state == "running"

    def test_replayed_spec_keeps_its_key_order(self, tmp_path):
        # Spec key order reaches the stored result bytes of a job that a
        # restarted daemon runs from the journal.
        payload = DefenseMatrixSpec().to_dict()
        assert json.dumps(payload) != json.dumps(payload, sort_keys=True)
        job, _ = JobQueue(tmp_path).submit(payload)
        replayed = JobQueue(tmp_path).get(job.job_id).spec
        assert json.dumps(replayed) == json.dumps(payload)


class TestClaimAndLifecycle:
    def test_claim_is_fifo(self, tmp_path):
        queue = JobQueue(tmp_path)
        first, _ = queue.submit(_payload(seed=1))
        second, _ = queue.submit(_payload(seed=2))
        assert queue.claim().job_id == first.job_id
        assert queue.claim().job_id == second.job_id
        assert queue.claim() is None

    def test_cancel_only_pending(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_payload())
        assert queue.cancel(job.job_id)
        assert queue.get(job.job_id).state == "cancelled"
        running, _ = queue.submit(_payload(seed=9))
        queue.claim()
        assert not queue.cancel(running.job_id)  # running: not cancellable
        assert not queue.cancel("nonexistent")

    def test_counts(self, tmp_path):
        queue = JobQueue(tmp_path)
        first, _ = queue.submit(_payload(seed=1))
        queue.submit(_payload(seed=2))
        queue.claim()  # claims the first submission
        queue.complete(first.job_id)
        counts = queue.counts()
        assert counts["pending"] == 1 and counts["done"] == 1


class TestPersistence:
    def test_restart_preserves_jobs_and_order(self, tmp_path):
        queue = JobQueue(tmp_path)
        first, _ = queue.submit(DefenseMatrixSpec().to_dict())
        second, _ = queue.submit(_payload(seed=5))
        reloaded = JobQueue(tmp_path)
        assert [job.job_id for job in reloaded.jobs()] == [first.job_id, second.job_id]
        assert reloaded.claim().job_id == first.job_id

    def test_new_submissions_continue_the_sequence(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(_payload(seed=1))
        reloaded = JobQueue(tmp_path)
        later, _ = reloaded.submit(_payload(seed=2))
        assert later.sequence == 2

    def test_foreign_files_are_ignored(self, tmp_path):
        # Per-job files from older builds are not read either.
        (tmp_path / "job-bogus.json").write_text("{not json")
        (tmp_path / "notes.txt").write_text("hello")
        queue = JobQueue(tmp_path)
        assert len(queue) == 0


class TestRecovery:
    def test_interrupted_running_job_requeued_exactly_once(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_payload())
        queue.claim()
        assert queue.get(job.job_id).state == "running"

        # Simulated daemon crash: a fresh queue sees the running job...
        crashed = JobQueue(tmp_path)
        report = crashed.recover()
        assert report["requeued"] == [job.job_id]
        recovered = crashed.get(job.job_id)
        assert recovered.state == "pending" and recovered.requeued

        # ...and it runs again. A second interruption fails it for good.
        crashed.claim()
        crashed_again = JobQueue(tmp_path)
        report = crashed_again.recover()
        assert report["failed"] == [job.job_id]
        assert crashed_again.get(job.job_id).state == "failed"

    def test_recover_leaves_other_states_alone(self, tmp_path):
        queue = JobQueue(tmp_path)
        pending, _ = queue.submit(_payload(seed=1))
        done, _ = queue.submit(_payload(seed=2))
        queue.claim()
        queue.claim()
        queue.complete(done.job_id)
        # restart: one running (pending's claim), one done
        reloaded = JobQueue(tmp_path)
        reloaded.recover()
        assert reloaded.get(done.job_id).state == "done"
        assert reloaded.get(pending.job_id).state == "pending"
