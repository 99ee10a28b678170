#!/usr/bin/env python
"""End-to-end smoke test of the experiment service (CI `service-smoke` job).

Starts a real daemon on an ephemeral port, drives it through the TCP
client, and checks the service invariants that matter:

1. a submitted job runs to completion and its stored envelope is
   byte-identical to a serial ``ExperimentRunner`` run of the same spec;
2. resubmitting the same spec deduplicates against the finished job;
3. a job whose deadline lapses mid-run (an in-process chaos ``delay`` on
   every ``service.chunk``) fails with ``DeadlineExceeded``, and the
   daemon moves on: it answers ``ping`` and the next job stores bytes
   equal to a serial run, since the deadline is what bounds a job;
4. a second daemon on the same directories resumes pending work after the
   first one dies without running it, and a third one opens a compacted
   journal (one record per job) that still deduplicates the finished job.

Runs in a few seconds: the workload is a small-geometry defense matrix
(no DNN training).  Exits non-zero on the first violated invariant.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.dram.geometry import DramGeometry
from repro.experiments import (
    DefenseMatrixSpec,
    ExperimentRunner,
    ExperimentService,
    ResultStore,
    ServiceClient,
)
from repro.experiments.queue import read_journal
from repro.testing import chaos
from repro.testing.chaos import FaultPlan


def _spec(seed=7):
    return DefenseMatrixSpec(
        geometry=DramGeometry(num_banks=1, rows_per_bank=24, cols_per_row=128),
        chip_seed=seed,
    )


def main() -> int:
    failures = []

    def check(condition, label):
        print(("ok   " if condition else "FAIL ") + label)
        if not condition:
            failures.append(label)

    with tempfile.TemporaryDirectory() as raw:
        root = Path(raw)
        service = ExperimentService(
            queue_dir=root / "queue", store_dir=root / "store", port=0
        )
        service.start()
        try:
            client = ServiceClient(queue_dir=root / "queue")
            check(client.ping()["ok"], "daemon answers ping")

            submitted = client.submit(_spec().to_dict(), name="smoke")
            job = client.wait(submitted["job_id"], timeout=120)
            check(job["state"] == "done", "submitted job completes")

            again = client.submit(_spec().to_dict())
            check(
                not again["created"] and again["job_id"] == submitted["job_id"],
                "identical spec deduplicates",
            )

            # Each chunk sleeps 0.5 s, so a 1 s budget lapses mid-job.
            plan = FaultPlan.single("service.chunk", "delay", delay=0.5, count=10_000)
            with chaos.active_plan(plan):
                late = client.submit(_spec(seed=9).to_dict(), name="late", deadline=1.0)
                job = client.wait(late["job_id"], timeout=120)
            check(
                job["state"] == "failed" and "DeadlineExceeded" in (job["error"] or ""),
                "job past its deadline fails with DeadlineExceeded",
            )
            check(client.ping()["ok"], "daemon answers ping after the lapsed job")
            following = client.submit(_spec(seed=10).to_dict(), name="following")
            job = client.wait(following["job_id"], timeout=120)
            check(job["state"] == "done", "next job completes after the lapsed job")
        finally:
            service.stop()

        serial_store = ResultStore(root / "serial")
        serial_runner = ExperimentRunner(store=serial_store)
        for name, seed in (("smoke", 7), ("following", 10)):
            serial_runner.run(_spec(seed=seed), save_as=name)
            check(
                service.store.path_for(name).read_bytes()
                == serial_store.path_for(name).read_bytes(),
                f"daemon result {name!r} bit-identical to serial",
            )

        # Restart resume: submit without processing, then let a new daemon
        # on the same directories drain the queue.
        first = ExperimentService(queue_dir=root / "q2", store_dir=root / "s2")
        first._dispatch({"op": "submit", "spec": _spec(seed=8).to_dict(), "name": "resumed"})
        second = ExperimentService(queue_dir=root / "q2", store_dir=root / "s2")
        check(second.drain() == 1, "restarted daemon resumes pending job")
        check("resumed" in second.store.names(), "resumed job stored its result")
        third = ExperimentService(queue_dir=root / "q2", store_dir=root / "s2")
        records = [line.job.job_id for line in read_journal(third.queue.path)]
        check(
            len(records) == len(set(records)) == len(third.queue) == 1,
            "reopened journal holds one record per job",
        )
        reply = third._dispatch(
            {"op": "submit", "spec": _spec(seed=8).to_dict(), "name": "resumed"}
        )
        check(reply["ok"] and not reply["created"], "finished job still deduplicates")

    if failures:
        print(f"service smoke FAILED ({len(failures)} problem(s))")
        return 1
    print(
        "service smoke passed: queue, dedup, deadline, restart resume and serial parity"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
