"""ExperimentService: protocol, queue semantics, restart recovery, and the
daemon-vs-serial bit-identity acceptance."""

import json
import threading
import time

import pytest

import repro.experiments.runner as runner_module

from repro.core.bfa import BitSearchConfig
from repro.dram.geometry import DramGeometry
from repro.experiments import (
    ComparisonSpec,
    DefenseMatrixSpec,
    ExperimentRunner,
    ExperimentService,
    ProfileDensitySpec,
    ResultStore,
    ServiceClient,
    ServiceOverloadError,
    ServiceUnavailableError,
    TrrSamplingSpec,
    checkpoint_chunks,
)
from repro.experiments.checkpoint import ChunkCheckpoint
from repro.testing import chaos
from repro.testing.chaos import FaultPlan
from repro.utils.resilience import RetryPolicy

SMALL_GEOMETRY = DramGeometry(num_banks=1, rows_per_bank=24, cols_per_row=128)


def _cheap_spec(seed=11):
    """A spec that runs in well under a second (no DNN training)."""
    return DefenseMatrixSpec(geometry=SMALL_GEOMETRY, chip_seed=seed)


def _service(tmp_path, **kwargs):
    return ExperimentService(
        queue_dir=tmp_path / "queue", store_dir=tmp_path / "store", **kwargs
    )


class TestOfflineExecution:
    """The executor core, driven without any socket."""

    def test_submit_process_once_stores_result(self, tmp_path):
        service = _service(tmp_path)
        response = service._dispatch({"op": "submit", "spec": _cheap_spec().to_dict()})
        assert response["ok"] and response["created"]
        job = service.process_once()
        assert job.state == "done"
        assert service.store.names() == [response["name"]]
        assert service.process_once() is None

    def test_malformed_spec_rejected_at_submit(self, tmp_path):
        service = _service(tmp_path)
        response = service._dispatch({"op": "submit", "spec": {"kind": "nope"}})
        assert not response["ok"]
        assert len(service.queue) == 0

    def test_unknown_model_key_rejected_at_submit(self, tmp_path):
        service = _service(tmp_path)
        comparison = dict(ComparisonSpec().to_dict(), model_keys=["nosuch"])
        density = dict(ProfileDensitySpec().to_dict(), model_key="nosuch")
        for payload in (comparison, density):
            response = service._dispatch({"op": "submit", "spec": payload})
            assert not response["ok"]
            assert response["error"].startswith("invalid spec:")
            assert "nosuch" in response["error"]
        assert len(service.queue) == 0

    def test_equivalent_payloads_queue_one_job(self, tmp_path):
        # The queue keys jobs on the decoded spec, so a partial payload and
        # one carrying the retired "engine" key are the same job.
        service = _service(tmp_path)
        full = TrrSamplingSpec().to_dict()
        payloads = [{"kind": "trr_sampling"}, full, {**full, "engine": "reference"}]
        responses = [service._dispatch({"op": "submit", "spec": p}) for p in payloads]
        assert all(response["ok"] for response in responses)
        assert {response["job_id"] for response in responses} == {responses[0]["job_id"]}
        assert [response["created"] for response in responses] == [True, False, False]
        assert len(service.queue) == 1

    def test_submit_rejects_path_traversal_name(self, tmp_path):
        service = _service(tmp_path)
        response = service._dispatch(
            {"op": "submit", "spec": _cheap_spec().to_dict(), "name": "../x"}
        )
        assert not response["ok"]
        assert "invalid result name" in response["error"]
        assert len(service.queue) == 0

    def test_result_rejects_path_traversal_name(self, tmp_path):
        service = _service(tmp_path)
        (tmp_path / "x.json").write_text(json.dumps({"secret": 1}))
        response = service._dispatch({"op": "result", "name": "../x"})
        assert not response["ok"]
        assert "invalid result name" in response["error"]
        assert "envelope" not in response

    def test_failing_job_is_isolated(self, tmp_path, monkeypatch):
        service = _service(tmp_path)
        service._dispatch({"op": "submit", "spec": _cheap_spec(seed=1).to_dict()})
        service._dispatch({"op": "submit", "spec": _cheap_spec(seed=2).to_dict()})
        calls = []

        def boom_once(spec, save_as=None, checkpoint=None, deadline=None):
            calls.append(save_as)
            if len(calls) == 1:
                raise RuntimeError("boom")
            return original(spec, save_as=save_as, checkpoint=checkpoint, deadline=deadline)

        original = service.runner.run
        monkeypatch.setattr(service.runner, "run", boom_once)
        assert service.drain() == 2
        states = [job.state for job in service.queue.jobs()]
        assert states == ["failed", "done"]
        assert "boom" in service.queue.jobs()[0].error

    def test_result_refuses_a_corrupted_envelope(self, tmp_path):
        service = _service(tmp_path)
        service._dispatch({"op": "submit", "spec": _cheap_spec().to_dict(), "name": "dmx"})
        assert service.process_once().state == "done"
        assert service._dispatch({"op": "result", "name": "dmx"})["ok"]
        path = service.store.path_for("dmx")
        envelope = json.loads(path.read_text())
        envelope["payload"]["matrix"]["trr"]["rowpress"]["flips_with_defense"] += 1
        path.write_text(json.dumps(envelope, indent=2))
        response = service._dispatch({"op": "result", "name": "dmx"})
        assert not response["ok"]
        assert response["error"].startswith("IntegrityError: ")
        assert "digest mismatch" in response["error"]
        assert "envelope" not in response

    def test_result_refuses_every_envelope_load_refuses(self, tmp_path):
        # The digest does not cover schema_version, so only the schema
        # check of the shared reader refuses this file.
        service = _service(tmp_path)
        service._dispatch({"op": "submit", "spec": _cheap_spec().to_dict(), "name": "dmx"})
        assert service.process_once().state == "done"
        path = service.store.path_for("dmx")
        envelope = json.loads(path.read_text())
        envelope["schema_version"] = 999
        path.write_text(json.dumps(envelope, indent=2))
        with pytest.raises(ValueError, match="schema version 999"):
            service.store.load("dmx")
        response = service._dispatch({"op": "result", "name": "dmx"})
        assert not response["ok"]
        assert response["error"].startswith("ValueError: ")
        assert "schema version 999" in response["error"]
        assert "envelope" not in response

    def test_cancel_via_protocol(self, tmp_path):
        service = _service(tmp_path)
        first = service._dispatch({"op": "submit", "spec": _cheap_spec(seed=1).to_dict()})
        second = service._dispatch({"op": "submit", "spec": _cheap_spec(seed=2).to_dict()})
        assert service._dispatch({"op": "cancel", "job_id": second["job_id"]})["cancelled"]
        service.drain()
        jobs = {job.job_id: job.state for job in service.queue.jobs()}
        assert jobs[first["job_id"]] == "done"
        assert jobs[second["job_id"]] == "cancelled"
        # Only the non-cancelled job produced a result.
        assert len(service.store.names()) == 1


class TestProcessBackend:
    def test_one_pool_per_job_and_serial_bytes(self, tmp_path, monkeypatch, spy_chunk_saves):
        pools = []
        executor = runner_module.ProcessPoolExecutor

        def counting_executor(*args, **kwargs):
            pools.append(kwargs)
            return executor(*args, **kwargs)

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", counting_executor)
        spec = DefenseMatrixSpec()
        service = _service(tmp_path, backend="process", max_workers=2)
        service._dispatch({"op": "submit", "spec": spec.to_dict(), "name": "dmx"})
        saved = spy_chunk_saves()
        job = service.process_once()
        assert job.state == "done", job.error
        assert saved == list(range(len(spec.work_units())))  # one unit a chunk
        assert len(pools) == 1

        serial_store = ResultStore(tmp_path / "serial")
        ExperimentRunner(store=serial_store).run(spec, save_as="dmx")
        assert service.store.path_for("dmx").read_bytes() == serial_store.path_for("dmx").read_bytes()


class TestRestartRecovery:
    def test_restart_resumes_pending_jobs_bit_identical_to_serial(self, tmp_path):
        specs = [_cheap_spec(seed=1), _cheap_spec(seed=2)]
        first = _service(tmp_path)
        for index, spec in enumerate(specs):
            first._dispatch({"op": "submit", "spec": spec.to_dict(), "name": f"job{index}"})
        # Daemon dies before running anything; a new daemon on the same
        # directories resumes the queue and loses no work.
        second = _service(tmp_path)
        assert second.drain() == 2
        assert [job.state for job in second.queue.jobs()] == ["done", "done"]

        serial_store = ResultStore(tmp_path / "serial")
        runner = ExperimentRunner(store=serial_store)
        for index, spec in enumerate(specs):
            runner.run(spec, save_as=f"job{index}")
        for index in range(2):
            daemon_env = json.loads(second.store.path_for(f"job{index}").read_text())
            serial_env = json.loads(serial_store.path_for(f"job{index}").read_text())
            assert daemon_env == serial_env

    def test_job_interrupted_mid_run_requeues_exactly_once(self, tmp_path):
        first = _service(tmp_path)
        first._dispatch({"op": "submit", "spec": _cheap_spec().to_dict()})
        claimed = first.queue.claim()  # crash with the job mid-flight

        second = _service(tmp_path)
        assert second.recovery["requeued"] == [claimed.job_id]
        assert second.drain() == 1
        assert second.queue.get(claimed.job_id).state == "done"

        # A job that takes the daemon down twice is failed, not looped.
        second.queue.submit(_cheap_spec(seed=99).to_dict())
        poisoned = second.queue.claim()
        third = _service(tmp_path)
        requeued = third.queue.get(poisoned.job_id)
        assert requeued.state == "pending" and requeued.requeued
        third.queue.claim()
        fourth = _service(tmp_path)
        assert fourth.recovery["failed"] == [poisoned.job_id]
        assert fourth.queue.get(poisoned.job_id).state == "failed"


class TestOverloadProtection:
    def test_submission_past_bound_is_shed_with_retry_after(self, tmp_path):
        service = _service(tmp_path, max_pending=1)
        accepted = service._dispatch({"op": "submit", "spec": _cheap_spec(seed=1).to_dict()})
        shed = service._dispatch({"op": "submit", "spec": _cheap_spec(seed=2).to_dict()})
        assert accepted["ok"]
        assert not shed["ok"] and shed["overloaded"]
        assert shed["retry_after"] >= 0.5
        # Shedding never loses accepted work: the first job still runs.
        assert service.drain() == 1
        assert service.store.names() == [accepted["name"]]

    def test_duplicate_submission_is_not_shed(self, tmp_path):
        service = _service(tmp_path, max_pending=1)
        first = service._dispatch({"op": "submit", "spec": _cheap_spec(seed=1).to_dict()})
        again = service._dispatch({"op": "submit", "spec": _cheap_spec(seed=1).to_dict()})
        assert again["ok"] and not again["created"]
        assert again["job_id"] == first["job_id"]

    def test_retry_after_scales_with_backlog(self, tmp_path):
        service = _service(tmp_path)
        service._avg_job_seconds = 2.0
        for seed in range(3):
            service._dispatch({"op": "submit", "spec": _cheap_spec(seed=seed).to_dict()})
        assert service.retry_after_hint() == pytest.approx(6.0)

    def test_health_reports_queue_and_registry(self, tmp_path):
        service = _service(tmp_path, max_pending=7)
        service._dispatch({"op": "submit", "spec": _cheap_spec(seed=1).to_dict()})
        health = service._dispatch({"op": "health"})["health"]
        assert health["pending"] == 1 and health["max_pending"] == 7
        assert health["queue"]["pending"] == 1
        assert health["active_job"] is None
        assert health["uptime_seconds"] >= 0
        # ``victims`` is the stats of the daemon's victim cache, which is
        # the runner's own cache (``service.registry``).
        assert service.registry is service.runner.context.victims
        assert health["victims"] == service.registry.stats()
        assert set(health["victims"]) == {
            "hits", "misses", "entries", "shared_attaches",
        }

    def test_client_submit_retries_until_capacity(self, tmp_path, monkeypatch):
        client = ServiceClient(host="127.0.0.1", port=1)
        responses = iter([
            {"ok": False, "error": "queue full", "overloaded": True, "retry_after": 0.7},
            {"ok": False, "error": "queue full", "overloaded": True, "retry_after": 0.7},
            {"ok": True, "job_id": "j", "name": "n", "state": "pending", "created": True},
        ])

        def fake_call(self, request):
            response = next(responses)
            if not response.get("ok"):
                raise ServiceOverloadError(response["error"], response["retry_after"])
            return response

        monkeypatch.setattr(ServiceClient, "_call", fake_call)
        sleeps = []
        policy = RetryPolicy(max_attempts=5, base_delay=0.1, jitter=0.0)
        response = client.submit(
            _cheap_spec().to_dict(), retries=policy, sleep=sleeps.append
        )
        assert response["created"]
        # Backoff honours the daemon's hint when it exceeds the policy delay.
        assert len(sleeps) == 2 and all(delay >= 0.7 for delay in sleeps)

    def test_client_submit_without_retries_raises(self, tmp_path, monkeypatch):
        client = ServiceClient(host="127.0.0.1", port=1)

        def always_shed(self, request):
            raise ServiceOverloadError("queue full", retry_after=1.5)

        monkeypatch.setattr(ServiceClient, "_call", always_shed)
        with pytest.raises(ServiceOverloadError) as excinfo:
            client.submit(_cheap_spec().to_dict())
        assert excinfo.value.retry_after == 1.5


class TestPrioritiesAndDeadlines:
    def test_priority_orders_execution(self, tmp_path):
        service = _service(tmp_path)
        low = service._dispatch({"op": "submit", "spec": _cheap_spec(seed=1).to_dict()})
        high = service._dispatch({
            "op": "submit", "spec": _cheap_spec(seed=2).to_dict(), "priority": 5,
        })
        first = service.process_once()
        assert first.job_id == high["job_id"]
        assert service.process_once().job_id == low["job_id"]

    def test_expired_deadline_fails_before_start(self, tmp_path):
        service = _service(tmp_path)
        response = service._dispatch({
            "op": "submit", "spec": _cheap_spec(seed=1).to_dict(), "deadline": -1.0,
        })
        assert service.process_once() is None  # nothing runnable remained
        job = service.queue.get(response["job_id"])
        assert job.state == "failed"
        assert "deadline expired" in job.error
        assert service.store.names() == []

    def test_deadline_budget_reaches_the_backend(self, tmp_path, monkeypatch):
        service = _service(tmp_path)
        service._dispatch({
            "op": "submit", "spec": _cheap_spec(seed=1).to_dict(), "deadline": 60.0,
        })
        seen = {}
        original = service.runner.run

        def capture(spec, save_as=None, checkpoint=None, deadline=None):
            seen["deadline"] = deadline
            return original(spec, save_as=save_as, checkpoint=checkpoint, deadline=deadline)

        runner_state = dict(vars(service.runner))
        monkeypatch.setattr(service.runner, "run", capture)
        job = service.process_once()
        assert job.state == "done"
        assert seen["deadline"] is not None
        assert 0 < seen["deadline"].remaining() <= 60.0
        # The budget is a call argument: the shared runner's state is untouched.
        assert {k: v for k, v in vars(service.runner).items() if k != "run"} == runner_state

    def test_deadline_lapses_mid_job_and_resubmission_resumes(
        self, tmp_path, spy_chunk_saves
    ):
        """The deadline is a job's only time bound: it stops the job at a
        chunk boundary, and a resubmission saves only the missing chunks."""
        spec = DefenseMatrixSpec()  # 10 units, one chunk each
        chunks = checkpoint_chunks(spec.work_units())
        total = len(chunks)
        # Every chunk is delayed 0.5 s, so a 2 s budget runs out after at
        # most 4 chunks; the first chunk's check comes right after claim.
        plan = FaultPlan.single("service.chunk", "delay", delay=0.5, count=10_000)
        service = _service(tmp_path)
        with chaos.active_plan(plan):
            service._dispatch({
                "op": "submit", "spec": spec.to_dict(), "name": "dmx", "deadline": 2.0,
            })
            job = service.process_once()
        assert job.state == "failed" and "DeadlineExceeded" in job.error
        checkpoint = ChunkCheckpoint(service.checkpoint_root / job.job_id, owner=job.job_id)
        kept = sorted(checkpoint.resumable(chunks))
        assert 1 <= len(kept) < total
        assert service.store.names() == []

        service._dispatch({"op": "submit", "spec": spec.to_dict(), "name": "dmx"})
        saved = spy_chunk_saves()
        assert service.process_once().state == "done"
        assert saved == [index for index in range(total) if index not in kept]
        serial_store = ResultStore(tmp_path / "serial")
        ExperimentRunner(store=serial_store).run(spec, save_as="dmx")
        assert service.store.path_for("dmx").read_bytes() == serial_store.path_for("dmx").read_bytes()


class TestOneJobAtATime:
    """Every job runs on the thread that claimed it, one job at a time, so
    no two jobs ever attack the daemon's cached victims together."""

    def test_job_runs_on_the_thread_that_claimed_it(self, tmp_path, monkeypatch):
        service = _service(tmp_path)
        service._dispatch({"op": "submit", "spec": _cheap_spec(seed=1).to_dict()})
        threads = []
        original = service.runner.run

        def record(spec, **job):
            threads.append(threading.current_thread())
            return original(spec, **job)

        monkeypatch.setattr(service.runner, "run", record)
        before = set(threading.enumerate())
        assert service.process_once().state == "done"
        assert threads == [threading.current_thread()]
        # No worker thread is started for the job, nor left behind by it.
        assert set(threading.enumerate()) == before

    def test_daemon_never_overlaps_jobs(self, tmp_path, monkeypatch):
        service = _service(tmp_path, port=0)
        lock = threading.Lock()
        in_flight = []
        seen = []
        original = service.runner.run

        def tracked(spec, **job):
            with lock:
                in_flight.append(threading.current_thread())
                seen.append(list(in_flight))
            try:
                return original(spec, **job)
            finally:
                with lock:
                    in_flight.remove(threading.current_thread())

        monkeypatch.setattr(service.runner, "run", tracked)
        # Slow chunks keep each job running while the next ones queue up.
        plan = FaultPlan.single("service.chunk", "delay", delay=0.05, count=10_000)
        with chaos.active_plan(plan):
            service.start()
            try:
                client = ServiceClient(queue_dir=tmp_path / "queue")
                job_ids = [
                    client.submit(_cheap_spec(seed=seed).to_dict())["job_id"]
                    for seed in (1, 2, 3)
                ]
                states = [client.wait(job_id, timeout=120)["state"] for job_id in job_ids]
            finally:
                service.stop()
        assert states == ["done"] * 3
        assert [len(running) for running in seen] == [1, 1, 1]
        # All three ran on the one executor thread.
        assert len({running[0] for running in seen}) == 1
        assert seen[0][0] is not threading.current_thread()

    def test_daemon_serves_the_next_job_after_a_deadline_failure(self, tmp_path):
        # Every chunk is delayed 0.5 s, so the 2 s deadline lapses mid-job.
        plan = FaultPlan.single("service.chunk", "delay", delay=0.5, count=10_000)
        spec = _cheap_spec(seed=2)
        service = _service(tmp_path, port=0)
        service.start()
        try:
            client = ServiceClient(queue_dir=tmp_path / "queue")
            with chaos.active_plan(plan):
                late = client.submit(_cheap_spec(seed=1).to_dict(), name="late", deadline=2.0)
                job = client.wait(late["job_id"], timeout=120)
            assert job["state"] == "failed" and "DeadlineExceeded" in job["error"]
            assert client.ping()["ok"]
            on_time = client.submit(spec.to_dict(), name="next")
            assert client.wait(on_time["job_id"], timeout=120)["state"] == "done"
            assert client.results() == ["next"]
            daemon_bytes = service.store.path_for("next").read_bytes()
        finally:
            service.stop()
        serial_store = ResultStore(tmp_path / "serial")
        ExperimentRunner(store=serial_store).run(spec, save_as="next")
        assert daemon_bytes == serial_store.path_for("next").read_bytes()

    def test_stop_finishes_the_in_flight_job(self, tmp_path):
        plan = FaultPlan.single("service.chunk", "delay", delay=0.1, count=10_000)
        service = _service(tmp_path, port=0)
        with chaos.active_plan(plan):
            service.start()
            try:
                client = ServiceClient(queue_dir=tmp_path / "queue")
                response = client.submit(_cheap_spec().to_dict(), name="matrix")
                give_up = time.monotonic() + 60
                while client.status(response["job_id"])["state"] == "pending":
                    assert time.monotonic() < give_up, "the job was never claimed"
                    time.sleep(0.01)
            finally:
                service.stop()
        assert service.queue.get(response["job_id"]).state == "done"
        assert service.store.names() == ["matrix"]
        assert not (service.checkpoint_root / response["job_id"]).exists()

    def test_consecutive_jobs_on_one_warm_victim_match_serial(self, tmp_path):
        """Two jobs attack the same cached victim one after the other; each
        stores the bytes of a fresh serial run."""
        specs = {
            f"p{profile_seed}": ComparisonSpec(
                model_keys=("m11",),
                repetitions=2,
                training_epochs=1,
                search=BitSearchConfig(max_flips=8, top_k_layers=2, eval_batch_size=32),
                eval_samples=32,
                seed=3,
                profile_seed=profile_seed,
            )
            for profile_seed in (1, 2)
        }
        service = _service(tmp_path)
        for name, spec in specs.items():
            service._dispatch({"op": "submit", "spec": spec.to_dict(), "name": name})
        assert service.drain() == 2
        assert service.registry.stats()["misses"] == 1  # one victim, shared
        for name, spec in specs.items():
            serial_store = ResultStore(tmp_path / f"serial-{name}")
            ExperimentRunner(store=serial_store).run(spec, save_as=name)
            assert (
                service.store.path_for(name).read_bytes()
                == serial_store.path_for(name).read_bytes()
            )


class TestStaleEndpoint:
    def test_missing_endpoint_raises_service_unavailable(self, tmp_path):
        with pytest.raises(ServiceUnavailableError, match="is the daemon running"):
            ServiceClient(queue_dir=tmp_path)

    def test_dead_pid_endpoint_detected_without_connecting(self, tmp_path):
        import subprocess

        probe = subprocess.Popen(["sleep", "0"])
        probe.wait()  # this pid is now dead (and very unlikely to be reused)
        (tmp_path / "endpoint.json").write_text(json.dumps({
            "host": "127.0.0.1", "port": 1, "pid": probe.pid,
        }))
        with pytest.raises(ServiceUnavailableError, match="stale"):
            ServiceClient(queue_dir=tmp_path)

    def test_endpoint_without_pid_is_trusted(self, tmp_path):
        # Legacy endpoint files (pre-liveness) carry no pid: accept them.
        (tmp_path / "endpoint.json").write_text(json.dumps({
            "host": "127.0.0.1", "port": 7421,
        }))
        client = ServiceClient(queue_dir=tmp_path)
        assert client.port == 7421


class TestSocketProtocol:
    @pytest.fixture
    def running(self, tmp_path):
        service = _service(tmp_path, port=0)
        service.start()
        try:
            yield service, ServiceClient(queue_dir=tmp_path / "queue")
        finally:
            service.stop()

    def test_ping_and_endpoint_discovery(self, running):
        service, client = running
        response = client.ping()
        assert response["ok"]
        assert service.endpoint_path.is_file()

    def test_submit_wait_result_roundtrip(self, running):
        service, client = running
        spec = _cheap_spec()
        response = client.submit(spec.to_dict(), name="matrix")
        job = client.wait(response["job_id"], timeout=60)
        assert job["state"] == "done"
        assert client.results() == ["matrix"]
        envelope = client.result("matrix")
        assert envelope["kind"] == "defense_matrix"
        # Duplicate submission after completion deduplicates.
        again = client.submit(spec.to_dict())
        assert not again["created"] and again["job_id"] == response["job_id"]

    def test_status_unknown_job_and_unknown_op(self, running):
        _, client = running
        with pytest.raises(RuntimeError, match="unknown job"):
            client.status("bogus")
        with pytest.raises(RuntimeError, match="unknown op"):
            client._call({"op": "frobnicate"})

    def test_jobs_and_registry_stats(self, running):
        service, client = running
        client.submit(_cheap_spec().to_dict())
        assert len(client.jobs()) == 1
        stats = client.health()["victims"]
        assert set(stats) >= {"hits", "misses", "entries"}

    def test_stop_removes_endpoint_file(self, tmp_path):
        service = _service(tmp_path, port=0)
        service.start()
        assert service.endpoint_path.is_file()
        service.stop()
        assert not service.endpoint_path.is_file()
        service.stop()  # idempotent


@pytest.mark.slow
class TestDaemonBitIdentity:
    """Acceptance: daemon + multi-worker backend + warm victim cache == serial."""

    def test_daemon_process_backend_warm_registry_matches_serial(self, tmp_path):
        spec = ComparisonSpec(
            model_keys=("resnet20",),
            repetitions=2,
            eval_samples=32,
            search=BitSearchConfig(max_flips=8, top_k_layers=2, eval_batch_size=32),
            training_epochs=1,
            seed=123,
            profile_seed=123,
        )
        service = _service(tmp_path, backend="process", max_workers=2, port=0)
        service.start()
        try:
            client = ServiceClient(queue_dir=tmp_path / "queue")
            response = client.submit(spec.to_dict(), name="cmp")
            job = client.wait(response["job_id"], timeout=900)
            assert job["state"] == "done", job.get("error")
            daemon_env = client.result("cmp")
            # The daemon trained the victim once and keeps it for later jobs.
            victims = client.health()["victims"]
            assert victims["misses"] == victims["entries"] == 1
        finally:
            service.stop()

        serial_store = ResultStore(tmp_path / "serial")
        ExperimentRunner(store=serial_store).run(spec, save_as="cmp")
        serial_env = json.loads(serial_store.path_for("cmp").read_text())
        assert daemon_env["payload"] == serial_env["payload"]
        assert daemon_env["spec"] == serial_env["spec"]
