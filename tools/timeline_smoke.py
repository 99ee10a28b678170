#!/usr/bin/env python
"""End-to-end smoke test of the timeline kinds (CI `timeline-smoke` job).

Pushes a tiny refresh-synchronized sweep through the full stack and checks
the invariants the command-timeline subsystem promises:

1. a ``refsync_sweep`` job submitted to a real daemon runs to completion
   and its stored envelope is byte-identical to a serial
   ``ExperimentRunner`` run of the same spec;
2. the reference and vectorized engine tiers produce the same grids for
   that spec (the golden contract, exercised through the spec layer);
3. the zero-activation cell's sampled fraction survives the store as nan
   and renders as ``-`` in the report heatmap.

Runs in a few seconds: the workload is a 6-window refsync sweep on a
48-row bank (no DNN training).  Exits non-zero on the first violated
invariant.
"""

import json
import math
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.figures import render_heatmap
from repro.dram.geometry import DramGeometry
from repro.experiments import (
    ExperimentRunner,
    ExperimentService,
    RefsyncSweepSpec,
    ResultStore,
    ServiceClient,
)


def _spec():
    return RefsyncSweepSpec(
        geometry=DramGeometry(num_banks=1, rows_per_bank=48, cols_per_row=128),
        victim_row=24,
        windows=6,
        act_rates=(0, 48),
        phases=(0, 2),
        decoy_rows=(2, 6),
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

            submitted = client.submit(_spec().to_dict(), name="refsync")
            job = client.wait(submitted["job_id"], timeout=120)
            check(job["state"] == "done", "refsync job completes via the daemon")
        finally:
            service.stop()

        serial_store = ResultStore(root / "serial")
        serial = ExperimentRunner(store=serial_store).run(_spec(), save_as="refsync")
        daemon_env = json.loads(service.store.path_for("refsync").read_text())
        serial_env = json.loads(serial_store.path_for("refsync").read_text())
        check(daemon_env == serial_env, "daemon result bit-identical to serial")

        with mock.patch.dict(os.environ, {"REPRO_DEFAULT_ENGINE": "reference"}):
            reference = ExperimentRunner().run(_spec()).payload
        check(
            serial.payload.flips == reference.flips
            and serial.payload.nrr_rows == reference.nrr_rows,
            "reference engine reproduces the vectorized grids",
        )

        loaded = service.store.load("refsync").payload
        check(
            math.isnan(loaded.sampled_fractions[0][0]),
            "zero-act cell round-trips as nan",
        )
        heatmap = render_heatmap(
            loaded.sampled_fractions,
            row_labels=loaded.act_rates,
            col_labels=loaded.phases,
            digits=2,
        )
        check(
            heatmap.splitlines()[2].split()[1] == "-",
            "nan cell renders as '-' in the report heatmap",
        )

    if failures:
        print(f"timeline smoke FAILED ({len(failures)} problem(s))")
        return 1
    print("timeline smoke passed: daemon parity, engine parity and nan conventions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
