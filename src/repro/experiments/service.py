"""Long-lived experiment daemon: submit specs, poll status, fetch results.

``python -m repro serve`` turns the one-shot CLI into a persistent
service.  The daemon composes the pieces this package already has —
:class:`~repro.experiments.queue.JobQueue` (persistent, crash-safe job
state), :class:`~repro.experiments.cache.VictimCache` (trained victims
kept warm across jobs), :class:`~repro.experiments.store.ResultStore`
(checksummed result envelopes) and
:class:`~repro.experiments.runner.ExperimentRunner` — behind
a line-oriented JSON protocol on a TCP socket:

    {"op": "submit", "spec": {...ExperimentSpec payload...}}
    {"ok": true, "job_id": "6fb0...", "state": "pending", ...}

One executor thread drains the queue (jobs run strictly one at a time, in
submission order, so daemon results are reproducible), while any number
of client connections submit, poll, cancel and fetch concurrently.  On
startup the daemon replays the queue directory: pending jobs resume,
jobs interrupted mid-run are requeued exactly once — a restart loses no
work.  The listening address is published to ``endpoint.json`` in the
queue directory so clients (``python -m repro submit`` and friends) need
no configuration.

Execution stays bit-identical to a direct
:class:`~repro.experiments.runner.ExperimentRunner` run of the same spec:
the spec carries every seed, the backend contract guarantees
serial-equality, and cached victims equal freshly trained ones.
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.experiments.cache import VictimCache
from repro.experiments.checkpoint import ChunkCheckpoint
from repro.experiments.queue import JobQueue, Job, QueueFullError
from repro.experiments.runner import ExperimentRunner, make_backend
from repro.experiments.specs import spec_from_dict
from repro.experiments.store import ResultStore, check_result_name, read_envelope
from repro.testing import chaos
from repro.utils.resilience import Deadline, RetryPolicy, atomic_write

PathLike = Union[str, Path]

#: Default TCP port of the experiment service.
DEFAULT_PORT = 7421

#: Name of the discovery file the daemon writes into its queue directory.
ENDPOINT_FILE = "endpoint.json"


class ServiceUnavailableError(ConnectionError):
    """No live daemon behind the discovered endpoint.

    Raised by :class:`ServiceClient` when ``endpoint.json`` is missing —
    or present but written by a process that is no longer alive (a daemon
    that died without cleanup), so dialing it could only burn a connect
    timeout.
    """


class ServiceOverloadError(RuntimeError):
    """The daemon shed this submission: its pending queue is at capacity.

    ``retry_after`` is the daemon's estimate (seconds) of when capacity
    frees up; :meth:`ServiceClient.submit` honours it when given a
    :class:`~repro.utils.resilience.RetryPolicy`.
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (signal-0 probe)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # e.g. EPERM: the process exists, just not ours
    return True


class _Handler(socketserver.StreamRequestHandler):
    """One client connection: JSON object per line in, JSON line out."""

    def handle(self):  # noqa: D102 - socketserver plumbing, not public API
        while True:
            line = self.rfile.readline()
            if not line:
                return
            request: Dict[str, Any] = {}
            try:
                request = json.loads(line)
                response = self.server.service._dispatch(request)
            except Exception as exc:  # noqa: BLE001 - reported to the client
                response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            self.wfile.write((json.dumps(response) + "\n").encode("utf-8"))
            self.wfile.flush()
            if request.get("op") == "shutdown":
                return


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class ExperimentService:
    """The daemon: a job queue, a warm victim cache and a runner.

    ``queue_dir`` holds job state (and the ``endpoint.json`` discovery
    file); ``store_dir`` is the result store jobs save into.
    ``backend`` names the execution backend jobs run under (``serial`` or
    ``process``).  The runner's unbounded
    :class:`~repro.experiments.cache.VictimCache` lives as long as the
    daemon, so consecutive jobs reuse every victim an earlier job
    trained; the process pool seeds its workers from it.

    Use :meth:`start` + :meth:`stop` (or :meth:`serve_forever`) for the
    network daemon; tests drive the same object deterministically with
    :meth:`process_once` / :meth:`drain` and no socket at all.

    Each job runs with its own
    :class:`~repro.experiments.checkpoint.ChunkCheckpoint`: its completed
    chunks are persisted under ``<queue_dir>/checkpoints/<job_id>/`` as
    they finish, so a daemon killed mid-job and restarted resumes the
    requeued job from its checkpoints instead of rerunning completed
    chunks.

    Overload protection: ``max_pending`` bounds the pending queue depth —
    a submission past the bound is *shed* with an ``overloaded`` response
    carrying a ``retry_after`` estimate instead of being accepted and
    starved.  Submissions may carry a priority (claimed first) and a
    deadline (seconds of useful life: expired queued jobs fail fast, a
    running job gets the remaining budget as a
    :class:`~repro.utils.resilience.Deadline`, checked at every chunk).
    The deadline is the only time bound on a job.  Every job runs on the
    thread that claimed it, so only one job at a time touches the runner
    and its victims; a daemon wedged inside a chunk is stopped by killing
    it, and the next start requeues the job once and resumes it from its
    checkpoints.
    """

    def __init__(
        self,
        queue_dir: PathLike,
        store_dir: PathLike,
        backend: str = "serial",
        max_workers: Optional[int] = None,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        max_pending: Optional[int] = None,
    ):
        self.queue = JobQueue(queue_dir, max_pending=max_pending)
        self.recovery = self.queue.recover()
        self.store = ResultStore(store_dir)
        #: The daemon's victim cache, the same object as
        #: ``runner.context.victims``; the name is kept for callers that
        #: read its ``hits``/``misses`` counters.
        self.registry = VictimCache()
        #: Where per-job chunk checkpoints live (one subdirectory per job).
        self.checkpoint_root = self.queue.directory / "checkpoints"
        self.runner = ExperimentRunner(
            backend=make_backend(backend, max_workers=max_workers),
            store=self.store,
            victim_cache=self.registry,
        )
        self.host = host
        self.port = port
        self._server: Optional[_Server] = None
        self._executor: Optional[threading.Thread] = None
        self._wake = threading.Event()
        self._stopping = threading.Event()
        self._started_at = time.time()
        #: Exponential moving average of completed-job wall-clock seconds
        #: (None until the first job finishes) — feeds ``retry_after``.
        self._avg_job_seconds: Optional[float] = None
        self._active_job: Optional[str] = None

    # -- job execution -------------------------------------------------
    def _run_job(
        self, job: Job, checkpoint: ChunkCheckpoint, deadline: Optional[Deadline]
    ) -> None:
        """Execute one claimed job through the runner (raises on failure).

        The job's checkpoint and deadline travel as arguments of the
        runner call, never as state on the shared runner.
        """
        # The claim fault point sits inside the caller's try: an injected
        # error fails the job cleanly, while an injected crash leaves it
        # RUNNING — exactly what a daemon death mid-job looks like — so
        # the next start's queue recovery requeues it and the kept
        # checkpoints resume it.
        chaos.fault_point("service.claim")
        self.runner.run(
            spec_from_dict(job.spec),
            save_as=job.name,
            checkpoint=checkpoint,
            deadline=deadline,
        )

    def process_once(self) -> Optional[Job]:
        """Claim and run one pending job; ``None`` when the queue is idle.

        The synchronous core of the executor thread, exposed so tests (and
        embedders) can drain the queue deterministically without sockets.
        The job runs on the calling thread.  A job with a deadline hands
        its remaining budget to the runner, which checks it at every chunk
        boundary.
        """
        job = self.queue.claim()
        if job is None:
            return None
        started = time.monotonic()
        self._active_job = job.job_id
        # The owner tag means a chunk written by any other job is
        # rejected on resume rather than combined into this job's result.
        checkpoint = ChunkCheckpoint(self.checkpoint_root / job.job_id, owner=job.job_id)
        deadline: Optional[Deadline] = None
        if job.deadline is not None:
            deadline = Deadline(max(0.0, job.deadline - time.time()))
        try:
            self._run_job(job, checkpoint, deadline)
        except Exception as exc:  # noqa: BLE001 - job-level isolation
            # Checkpoints are kept on failure: completed chunks are valid
            # (execution is deterministic), so a resubmission resumes them.
            return self.queue.fail(job.job_id, f"{type(exc).__name__}: {exc}")
        finally:
            self._active_job = None
        self._record_duration(time.monotonic() - started)
        checkpoint.clear()
        return self.queue.complete(job.job_id)

    def _record_duration(self, seconds: float) -> None:
        """Fold one completed job's wall-clock into the EMA."""
        if self._avg_job_seconds is None:
            self._avg_job_seconds = seconds
        else:
            self._avg_job_seconds = 0.7 * self._avg_job_seconds + 0.3 * seconds

    def retry_after_hint(self) -> float:
        """Seconds a shed client should wait before resubmitting.

        The pending depth times the average job duration (1s until the
        first job completes), floored at half a second so a hint is never
        a busy-loop invitation.
        """
        avg = self._avg_job_seconds if self._avg_job_seconds else 1.0
        return max(0.5, self.queue.pending_count() * avg)

    def drain(self) -> int:
        """Run queued jobs until none are pending; returns the count run."""
        ran = 0
        while self.process_once() is not None:
            ran += 1
        return ran

    def _execute_loop(self) -> None:
        while not self._stopping.is_set():
            if self.process_once() is None:
                self._wake.wait(timeout=0.05)
                self._wake.clear()

    # -- protocol ------------------------------------------------------
    def _dispatch(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        """Serve one protocol request (already JSON-decoded)."""
        op = request.get("op")
        if op in ("submit", "result") and request.get("name") is not None:
            # Names become file names in the store: reject one that could
            # address a file outside it before anything is queued or read.
            try:
                check_result_name(request["name"])
            except ValueError as exc:
                return {"ok": False, "error": str(exc)}
        if op == "ping":
            return {"ok": True, "pid": os.getpid(), "jobs": self.queue.counts()}
        if op == "submit":
            try:
                # Reject malformed specs up front and queue the normalised
                # payload, so partial or retired-key payloads of the same
                # spec deduplicate to one job.
                spec = spec_from_dict(request["spec"])
            except (ValueError, TypeError, KeyError) as exc:
                return {"ok": False, "error": f"invalid spec: {exc}"}
            deadline = request.get("deadline")
            try:
                job, created = self.queue.submit(
                    spec.to_dict(),
                    name=request.get("name"),
                    priority=int(request.get("priority", 0)),
                    # The wire carries seconds-of-useful-life; the queue
                    # stores the absolute expiry so a daemon restart
                    # cannot reset the clock.
                    deadline=None if deadline is None else time.time() + float(deadline),
                )
            except QueueFullError as exc:
                return {
                    "ok": False,
                    "error": str(exc),
                    "overloaded": True,
                    "retry_after": self.retry_after_hint(),
                }
            self._wake.set()
            return {
                "ok": True,
                "job_id": job.job_id,
                "name": job.name,
                "state": job.state,
                "created": created,
            }
        if op == "health":
            counts = self.queue.counts()
            return {
                "ok": True,
                "health": {
                    "pid": os.getpid(),
                    "uptime_seconds": time.time() - self._started_at,
                    "queue": counts,
                    "pending": counts["pending"],
                    "max_pending": self.queue.max_pending,
                    "active_job": self._active_job,
                    "avg_job_seconds": self._avg_job_seconds,
                    "victims": self.registry.stats(),
                },
            }
        if op == "status":
            try:
                return {"ok": True, "job": self.queue.get(request["job_id"]).to_dict()}
            except KeyError:
                return {"ok": False, "error": f"unknown job {request['job_id']!r}"}
        if op == "cancel":
            return {"ok": True, "cancelled": self.queue.cancel(request["job_id"])}
        if op == "jobs":
            return {"ok": True, "jobs": [job.to_dict() for job in self.queue.jobs()]}
        if op == "results":
            return {"ok": True, "names": self.store.names()}
        if op == "result":
            path = self.store.path_for(request["name"])
            if not path.is_file():
                return {"ok": False, "error": f"no result named {request['name']!r}"}
            # The store's own reader: the op refuses every file load() does.
            read = read_envelope(path)
            if read.error is not None:
                return {"ok": False, "error": f"{type(read.error).__name__}: {read.error}"}
            return {"ok": True, "envelope": read.envelope}
        if op == "shutdown":
            threading.Thread(target=self.stop, daemon=True).start()
            return {"ok": True, "stopping": True}
        return {"ok": False, "error": f"unknown op {op!r}"}

    # -- daemon lifecycle ----------------------------------------------
    @property
    def endpoint_path(self) -> Path:
        """Where the daemon publishes (and clients discover) its address."""
        return self.queue.directory / ENDPOINT_FILE

    def start(self) -> None:
        """Bind the socket, publish ``endpoint.json``, start the executor."""
        self._server = _Server((self.host, self.port), _Handler)
        self._server.service = self
        self.port = self._server.server_address[1]
        # Atomic publish: a client discovering the endpoint mid-write must
        # never read a truncated JSON file.
        endpoint = {"host": self.host, "port": self.port, "pid": os.getpid()}
        atomic_write(self.endpoint_path, json.dumps(endpoint).encode("utf-8"))
        self._executor = threading.Thread(target=self._execute_loop, daemon=True)
        self._executor.start()
        self._serve_thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.1}, daemon=True
        )
        self._serve_thread.start()

    def wait_until_stopped(self, timeout: Optional[float] = None) -> bool:
        """Block until the daemon stops; ``False`` when ``timeout`` expires."""
        return self._stopping.wait(timeout=timeout)

    def serve_forever(self) -> None:
        """Run the daemon until :meth:`stop` (or a shutdown request)."""
        self.start()
        try:
            self.wait_until_stopped()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        """Stop serving and finish the in-flight job.

        Idempotent.  A job actually mid-run when the daemon dies instead
        of stopping cleanly is requeued by the next start's queue
        recovery.
        """
        if self._stopping.is_set():
            return
        self._stopping.set()
        self._wake.set()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._executor is not None:
            self._executor.join(timeout=60)
            self._executor = None
        try:
            self.endpoint_path.unlink()
        except OSError:
            pass


class ServiceClient:
    """Talk to a running :class:`ExperimentService` over its JSON protocol.

    Address resolution: pass ``host``/``port`` explicitly, or a
    ``queue_dir`` whose ``endpoint.json`` (written by the daemon) is read
    instead.  A discovered endpoint is checked for **liveness** first:
    the daemon records its pid in the file, and an endpoint whose owner
    is dead (a daemon that crashed without cleanup) raises
    :class:`ServiceUnavailableError` immediately instead of burning a
    connect timeout on a port nobody listens on.  Every method opens a
    short-lived connection, so a client object is cheap and stateless.
    """

    def __init__(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        queue_dir: Optional[PathLike] = None,
    ):
        if host is None or port is None:
            if queue_dir is None:
                raise ValueError("need host+port or a queue_dir with endpoint.json")
            endpoint_path = Path(queue_dir) / ENDPOINT_FILE
            try:
                endpoint = json.loads(endpoint_path.read_text())
            except OSError as exc:
                raise ServiceUnavailableError(
                    f"no service endpoint at {endpoint_path} — is the daemon running?"
                ) from exc
            pid = endpoint.get("pid")
            if pid is not None and not _pid_alive(int(pid)):
                raise ServiceUnavailableError(
                    f"endpoint {endpoint_path} is stale: daemon pid {pid} is dead"
                )
            host = host or endpoint["host"]
            port = port or endpoint["port"]
        self.host = host
        self.port = port

    def _call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        with socket.create_connection((self.host, self.port), timeout=30) as conn:
            conn.sendall((json.dumps(request) + "\n").encode("utf-8"))
            reader = conn.makefile("r", encoding="utf-8")
            line = reader.readline()
        if not line:
            raise ConnectionError("service closed the connection without replying")
        response = json.loads(line)
        if not response.get("ok"):
            if response.get("overloaded"):
                raise ServiceOverloadError(
                    response.get("error", "service overloaded"),
                    retry_after=float(response.get("retry_after", 1.0)),
                )
            raise RuntimeError(response.get("error", "service request failed"))
        return response

    def ping(self) -> Dict[str, Any]:
        """Liveness probe; returns the daemon pid and per-state job counts."""
        return self._call({"op": "ping"})

    def submit(
        self,
        spec_payload: Mapping[str, Any],
        name: Optional[str] = None,
        priority: Optional[int] = None,
        deadline: Optional[float] = None,
        retries: Optional[RetryPolicy] = None,
        sleep: Any = time.sleep,
    ) -> Dict[str, Any]:
        """Submit a spec payload; returns job id/name/state and dedup flag.

        ``priority`` orders the daemon's queue (higher first); ``deadline``
        is seconds of useful life from now.  With ``retries`` (a
        :class:`~repro.utils.resilience.RetryPolicy`), an overloaded
        daemon's shed response is retried, sleeping at least the daemon's
        ``retry_after`` hint between attempts; without it,
        :class:`ServiceOverloadError` propagates to the caller.
        """
        request: Dict[str, Any] = {"op": "submit", "spec": dict(spec_payload)}
        if name is not None:
            request["name"] = name
        if priority is not None:
            request["priority"] = priority
        if deadline is not None:
            request["deadline"] = deadline
        if retries is None:
            return self._call(request)
        delays = list(retries.delays()) + [None]
        for backoff in delays:
            try:
                return self._call(request)
            except ServiceOverloadError as exc:
                if backoff is None:
                    raise
                sleep(max(backoff, exc.retry_after))
        raise RuntimeError("unreachable")  # pragma: no cover

    def health(self) -> Dict[str, Any]:
        """The daemon's health snapshot (queue depth, active job, victims)."""
        return self._call({"op": "health"})["health"]

    def status(self, job_id: str) -> Dict[str, Any]:
        """Full job record (state, attempts, error) for ``job_id``."""
        return self._call({"op": "status", "job_id": job_id})["job"]

    def cancel(self, job_id: str) -> bool:
        """Cancel a pending job; ``False`` when it already left the queue."""
        return self._call({"op": "cancel", "job_id": job_id})["cancelled"]

    def jobs(self) -> List[Dict[str, Any]]:
        """Every job the daemon knows, in submission order."""
        return self._call({"op": "jobs"})["jobs"]

    def results(self) -> List[str]:
        """Names of every result in the daemon's store."""
        return self._call({"op": "results"})["names"]

    def result(self, name: str) -> Dict[str, Any]:
        """The stored envelope (schema/kind/spec/payload) of a result.

        The daemon reads it as ``ResultStore.load`` does and refuses every
        file load refuses (``RuntimeError`` carrying the ``IntegrityError``
        or ``ValueError``).
        """
        return self._call({"op": "result", "name": name})["envelope"]

    def shutdown(self) -> None:
        """Ask the daemon to stop (it finishes the in-flight job first)."""
        self._call({"op": "shutdown"})

    def wait(self, job_id: str, timeout: float = 300.0, poll: float = 0.05) -> Dict[str, Any]:
        """Poll until ``job_id`` reaches a terminal state; returns the job.

        Raises ``TimeoutError`` if the job is still pending/running after
        ``timeout`` seconds.
        """
        deadline = time.monotonic() + timeout
        while True:
            job = self.status(job_id)
            if job["state"] in ("done", "failed", "cancelled"):
                return job
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} still {job['state']} after {timeout}s")
            time.sleep(poll)
