"""Persistent, crash-safe job queue for the experiment service.

Jobs are :class:`ExperimentSpec` payloads queued for asynchronous
execution.  The queue directory holds one append-only journal,
``queue.jsonl``: every state change appends one line holding the job's
full record plus a sha256 of it, in canonical (compact) JSON.  Opening the queue
replays the journal (the last verified record of each job wins), so the
queue survives a daemon restart: pending jobs resume exactly where they
were, and a job that was *running* when the daemon died is requeued —
exactly once — by :meth:`JobQueue.recover`.  Opening a journal that
holds superseded records compacts it to one record per job (tmp +
rename); no state change renames a file.  ``job-*.json`` files written
by older builds (one file per job) are not read: drain such a daemon
before upgrading.

Semantics:

* **Dedup** — a job's id is the :func:`~repro.experiments.specs.spec_hash`
  of its spec payload, so submitting the same spec twice returns the same
  job instead of queueing duplicate work.  Submitting a spec whose previous
  job failed or was cancelled re-activates that job.
* **FIFO** — :meth:`JobQueue.claim` hands out pending jobs in submission
  order (a monotonic per-queue sequence number, persisted with the job).
* **Requeue exactly once** — a claimed job carries ``attempts`` and a
  ``requeued`` flag; :meth:`JobQueue.recover` returns an interrupted
  running job to the pending state the first time and fails it the second,
  so a job that crashes the daemon cannot crash-loop forever.
* **Priorities and deadlines** — :meth:`JobQueue.claim` serves the
  highest ``priority`` first (FIFO within a priority band), and a pending
  job whose absolute ``deadline`` has passed is failed fast instead of
  being claimed — queued work that can no longer be useful never occupies
  the executor.
* **Admission control** — a queue constructed with ``max_pending`` rejects
  submissions that would exceed that many pending jobs with
  :class:`QueueFullError`, the load-shedding signal the service turns
  into a ``retry-after`` response.
* **Integrity** — :func:`read_journal` is the one reader of the format.
  A line that does not parse, fails its checksum or drifts from the
  canonical bytes is skipped (never applied) and recorded in
  :attr:`JobQueue.corrupt_lines` for ``repro fsck`` to report and
  quarantine; its job keeps its previous record.  A torn last line (an
  append cut short) is skipped the same way, and the next append starts
  on a fresh line.  A journal with bad lines is not compacted, so fsck
  still finds them.

The queue is thread-safe (one lock guards all state) but single-writer:
exactly one daemon process owns a queue directory at a time.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.experiments.specs import spec_hash
from repro.testing import chaos
from repro.utils.resilience import atomic_write

PathLike = Union[str, Path]


class QueueFullError(RuntimeError):
    """Submission rejected: the queue already holds ``max_pending`` jobs.

    Carries ``pending`` (the depth at rejection time) so callers — the
    service's load-shedding response in particular — can derive a
    meaningful retry-after hint.
    """

    def __init__(self, pending: int, max_pending: int):
        super().__init__(
            f"queue full: {pending} pending jobs (limit {max_pending})"
        )
        self.pending = pending
        self.max_pending = max_pending


#: Job lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a duplicate submission deduplicates against (anything still
#: queued, in flight or already successfully completed).
_ACTIVE_STATES = (PENDING, RUNNING, DONE)

#: The journal's file name inside a queue directory.
JOURNAL_FILE = "queue.jsonl"


@dataclass
class Job:
    """One queued experiment: a spec payload plus its execution state.

    ``job_id`` is the spec-hash content address (deduplication key),
    ``name`` the result-store entry the output is saved under, and
    ``sequence`` the FIFO submission order.  ``attempts`` counts claims and
    ``requeued`` records whether the crash-recovery path already gave the
    job its one retry.  ``priority`` orders claims (higher first, FIFO
    within a band) and ``deadline`` is an absolute Unix timestamp after
    which the job is useless: expired pending jobs fail fast, and the
    service hands the remaining budget of a claimed job to its backend as
    a :class:`~repro.utils.resilience.Deadline`.
    """

    job_id: str
    name: str
    spec: Dict[str, Any]
    state: str = PENDING
    sequence: int = 0
    attempts: int = 0
    requeued: bool = False
    error: Optional[str] = None
    priority: int = 0
    deadline: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable description; inverse of :meth:`from_dict`."""
        return {
            "job_id": self.job_id,
            "name": self.name,
            "spec": self.spec,
            "state": self.state,
            "sequence": self.sequence,
            "attempts": self.attempts,
            "requeued": self.requeued,
            "error": self.error,
            "priority": self.priority,
            "deadline": self.deadline,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Job":
        """Rebuild a job from :meth:`to_dict` output."""
        return cls(
            job_id=payload["job_id"],
            name=payload["name"],
            spec=dict(payload["spec"]),
            state=payload.get("state", PENDING),
            sequence=int(payload.get("sequence", 0)),
            attempts=int(payload.get("attempts", 0)),
            requeued=bool(payload.get("requeued", False)),
            error=payload.get("error"),
            priority=int(payload.get("priority", 0)),
            deadline=(
                None
                if payload.get("deadline") is None
                else float(payload["deadline"])
            ),
        )


def _canonical(payload: Mapping[str, Any]) -> bytes:
    """The one byte form of a record: compact JSON in the record's key order.

    Keys are not sorted: a spec's key order reaches the stored result, so
    a job replayed from the journal must hand the spec back as submitted.
    """
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def _encode(job: Job) -> bytes:
    """One journal line, without its newline: the record plus its sha256."""
    record = job.to_dict()
    return _canonical({**record, "sha256": hashlib.sha256(_canonical(record)).hexdigest()})


@dataclass(frozen=True)
class JournalLine:
    """One line of a queue journal, as :func:`read_journal` judged it.

    ``number`` is 1-based and ``raw`` holds the line's bytes without its
    newline.  A good line carries its decoded ``job``; a bad one has
    ``job=None`` and a ``problem``: ``unreadable``, ``digest-mismatch``,
    or ``torn`` for an unterminated last line that does not verify (an
    append cut short).  ``terminated`` is whether a newline ends the line.
    """

    number: int
    raw: bytes
    job: Optional[Job] = None
    problem: str = ""
    detail: str = ""
    terminated: bool = True


def _check_line(raw: bytes) -> Tuple[Optional[Job], str, str]:
    """Decode and verify one journal line: ``(job, problem, detail)``."""
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return None, "unreadable", f"{type(exc).__name__}: {exc}"
    if not isinstance(payload, dict):
        return None, "unreadable", "not a job record"
    stored = payload.pop("sha256", None)
    computed = hashlib.sha256(_canonical(payload)).hexdigest()
    if stored != computed:
        return None, "digest-mismatch", f"stored {stored!r}, computed {computed!r}"
    if raw != _canonical({**payload, "sha256": stored}):
        # A flip the digest cannot see (whitespace, an escape) still shows
        # up as drift from the writer's canonical bytes.
        return None, "digest-mismatch", "line bytes differ from the canonical serialisation"
    try:
        return Job.from_dict(payload), "", ""
    except (KeyError, TypeError, ValueError) as exc:
        return None, "unreadable", f"not a job record: {type(exc).__name__}: {exc}"


def read_journal(path: PathLike) -> List[JournalLine]:
    """Every non-blank line of a queue journal, decoded and verified.

    A missing journal reads as empty.  Lines are split on ``\\n`` only, so
    a damaged line never swallows its neighbour.
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        return []
    segments = data.split(b"\n")
    lines = []
    for index, raw in enumerate(segments):
        if not raw:
            continue
        terminated = index < len(segments) - 1
        job, problem, detail = _check_line(raw)
        if problem and not terminated:
            problem, detail = "torn", f"unterminated last line ({detail})"
        lines.append(JournalLine(index + 1, raw, job, problem, detail, terminated))
    return lines


class JobQueue:
    """Journal-backed FIFO queue of experiment jobs.

    Construction replays the journal in ``directory``; call
    :meth:`recover` afterwards (the daemon does) to requeue work that was
    interrupted mid-run.  ``max_pending`` bounds the number of pending
    jobs a :meth:`submit` may create (``None`` = unbounded); ``clock`` is
    the time source deadline expiry is judged against (injectable for
    tests).
    """

    def __init__(
        self,
        directory: PathLike,
        max_pending: Optional[int] = None,
        clock: Callable[[], float] = time.time,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_pending = max_pending
        self.clock = clock
        self.path = self.directory / JOURNAL_FILE
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._sequence = 0
        lines = read_journal(self.path)
        #: Journal lines skipped at load time (unparseable, failed
        #: checksum, torn) — ``repro fsck`` reports and quarantines these.
        self.corrupt_lines: List[JournalLine] = [line for line in lines if line.job is None]
        for line in lines:
            if line.job is not None:
                self._jobs[line.job.job_id] = line.job
                self._sequence = max(self._sequence, line.job.sequence)
        # After a torn append the next one first ends the torn line.
        self._fresh_line = not lines or lines[-1].terminated
        if not self.corrupt_lines and len(lines) > len(self._jobs):
            self._compact()

    # -- persistence ---------------------------------------------------
    def _compact(self) -> None:
        """Rewrite the journal as one record per job (tmp + rename)."""
        ordered = sorted(self._jobs.values(), key=lambda job: job.sequence)
        atomic_write(self.path, b"".join(_encode(job) + b"\n" for job in ordered))
        self._fresh_line = True

    def _persist(self, job: Job) -> None:
        """Append the job's current record to the journal.

        The ``queue.persist`` fault point sits before the write: an
        injected ``partial_write`` appends a torn half line and raises, and
        the job's previous record stays in force on reload.  An injected
        ``corrupt`` silently appends the record with one bit flipped; the
        checksum verification at load time (and ``repro fsck``) is what
        catches it.
        """
        line = _encode(job)
        action = chaos.fault_point("queue.persist")
        if action == "partial_write":
            self._append(line[: max(1, len(line) // 2)])
            raise OSError(f"chaos[queue.persist]: journal append torn for {job.job_id}")
        if action == "corrupt":
            line = chaos.corrupt_bytes(line, "queue.persist")
        self._append(line + b"\n")

    def _append(self, data: bytes) -> None:
        """Append ``data`` to the journal, first ending a torn last line."""
        if not self._fresh_line:
            data = b"\n" + data
        self._fresh_line = False  # unknown until the write returns
        with open(self.path, "ab") as handle:
            handle.write(data)
        self._fresh_line = data.endswith(b"\n")

    # -- submission and lifecycle --------------------------------------
    def submit(
        self,
        spec_payload: Mapping[str, Any],
        name: Optional[str] = None,
        priority: int = 0,
        deadline: Optional[float] = None,
    ) -> Tuple[Job, bool]:
        """Queue a spec payload; returns ``(job, created)``.

        ``created`` is ``False`` when an active job for the same spec
        already exists — duplicate submissions never queue duplicate
        work, but the new submission's ``priority``/``deadline`` still
        replace the existing job's (last writer wins, matching the
        reactivation path), so resubmitting is how an operator raises a
        queued job's priority or attaches a deadline.  A previous job that
        failed or was cancelled is re-activated with fresh attempt
        counters.  ``name`` defaults to ``<kind>-<job id prefix>``.
        ``priority`` orders claims (higher first) and ``deadline`` is the
        absolute Unix time after which the job should not run.  When the
        queue is bounded and already holds ``max_pending`` pending jobs, a
        submission that would *create* work raises :class:`QueueFullError`
        (deduplicating resubmissions always succeed — they add no load).
        """
        payload = dict(spec_payload)
        job_id = spec_hash(payload)[:16]
        with self._lock:
            existing = self._jobs.get(job_id)
            if existing is not None and existing.state in _ACTIVE_STATES:
                # Deduplicated, not ignored: the resubmission's QoS fields
                # win.  A new deadline on an already-running job bounds its
                # *next* claim (the running attempt's budget was fixed at
                # claim time).
                if existing.priority != priority or existing.deadline != deadline:
                    existing.priority = priority
                    existing.deadline = deadline
                    self._persist(existing)
                return existing, False
            self._check_admission()
            if existing is not None:
                existing.state = PENDING
                existing.attempts = 0
                existing.requeued = False
                existing.error = None
                existing.priority = priority
                existing.deadline = deadline
                self._persist(existing)
                return existing, True
            self._sequence += 1
            job = Job(
                job_id=job_id,
                name=name or f"{payload.get('kind', 'job')}-{job_id[:8]}",
                spec=payload,
                sequence=self._sequence,
                priority=priority,
                deadline=deadline,
            )
            self._jobs[job_id] = job
            self._persist(job)
            return job, True

    def _check_admission(self) -> None:
        """Raise :class:`QueueFullError` when the pending depth is at cap."""
        if self.max_pending is None:
            return
        pending = sum(1 for job in self._jobs.values() if job.state == PENDING)
        if pending >= self.max_pending:
            raise QueueFullError(pending, self.max_pending)

    def claim(self) -> Optional[Job]:
        """Move the best pending job to ``running`` and return it.

        "Best" is highest priority first, submission order within a
        priority band.  Pending jobs whose deadline has already passed are
        failed fast here (never claimed): by the time the executor could
        start them their result would be useless.
        """
        with self._lock:
            now = self.clock()
            pending = []
            for job in self._jobs.values():
                if job.state != PENDING:
                    continue
                if job.deadline is not None and now >= job.deadline:
                    job.state = FAILED
                    job.error = "deadline expired before the job could start"
                    self._persist(job)
                    continue
                pending.append(job)
            if not pending:
                return None
            job = min(pending, key=lambda entry: (-entry.priority, entry.sequence))
            job.state = RUNNING
            job.attempts += 1
            self._persist(job)
            return job

    def pending_count(self) -> int:
        """Number of jobs currently waiting to run."""
        with self._lock:
            return sum(1 for job in self._jobs.values() if job.state == PENDING)

    def complete(self, job_id: str) -> Job:
        """Mark a running job as successfully done."""
        return self._transition(job_id, DONE)

    def fail(self, job_id: str, error: str) -> Job:
        """Mark a job as failed with a human-readable error."""
        return self._transition(job_id, FAILED, error=error)

    def cancel(self, job_id: str) -> bool:
        """Cancel a pending job; running/finished jobs are not cancellable."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state != PENDING:
                return False
            job.state = CANCELLED
            self._persist(job)
            return True

    def _transition(self, job_id: str, state: str, error: Optional[str] = None) -> Job:
        with self._lock:
            job = self._jobs[job_id]
            job.state = state
            job.error = error
            self._persist(job)
            return job

    # -- recovery ------------------------------------------------------
    def recover(self) -> Dict[str, List[str]]:
        """Requeue work interrupted by a daemon crash or restart.

        Every job found in the ``running`` state was in flight when the
        previous owner died.  The first recovery returns it to ``pending``
        (and sets the ``requeued`` flag); a job recovered *again* — i.e.
        one whose execution has now taken the daemon down twice — is
        failed instead, so a poisonous job cannot crash-loop the service.
        Returns ``{"requeued": [...ids...], "failed": [...ids...]}``.
        """
        report: Dict[str, List[str]] = {"requeued": [], "failed": []}
        with self._lock:
            for job in self._jobs.values():
                if job.state != RUNNING:
                    continue
                if not job.requeued:
                    job.state = PENDING
                    job.requeued = True
                    report["requeued"].append(job.job_id)
                else:
                    job.state = FAILED
                    job.error = "interrupted again after its one crash requeue"
                    report["failed"].append(job.job_id)
                self._persist(job)
        return report

    # -- introspection -------------------------------------------------
    def get(self, job_id: str) -> Job:
        """The job with this id (raises ``KeyError`` when unknown)."""
        with self._lock:
            return self._jobs[job_id]

    def jobs(self) -> List[Job]:
        """Every known job, in submission order."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job.sequence)

    def counts(self) -> Dict[str, int]:
        """Number of jobs per state (states with zero jobs included)."""
        tally = {state: 0 for state in (PENDING, RUNNING, DONE, FAILED, CANCELLED)}
        with self._lock:
            for job in self._jobs.values():
                tally[job.state] = tally.get(job.state, 0) + 1
        return tally

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)
