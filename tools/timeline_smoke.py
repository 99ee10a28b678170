#!/usr/bin/env python
"""End-to-end smoke test of the small DRAM kinds (CI `timeline-smoke` job).

Pushes a tiny ``refsync_sweep``, two ``trr_sampling`` (two chip seeds,
back to back), a ``flip_sweep`` and a ``chip_profile`` job through the
full stack and checks the invariants the
command-timeline and profiling layers promise:

1. each job submitted to a real daemon runs to completion and its stored
   envelope is byte-identical to a serial ``ExperimentRunner`` run of the
   same spec;
2. a run under ``REPRO_DEFAULT_ENGINE=reference`` stores the same bytes
   as one on the default tier (the golden contract, exercised through the
   spec layer);
3. the refsync grid's zero-activation cell's sampled fraction survives
   the store as nan and renders as ``-`` in the report heatmap.

Runs in a few seconds: the workloads are 6- and 12-window timelines on a
48-row bank and a 24-row, 2-bank profiling campaign (no DNN training).  Exits
non-zero when any invariant is violated.
"""

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
    ChipProfileSpec,
    ExperimentRunner,
    ExperimentService,
    FlipSweepSpec,
    RefsyncSweepSpec,
    ResultStore,
    ServiceClient,
    TrrSamplingSpec,
)

TIMELINE_GEOMETRY = DramGeometry(num_banks=1, rows_per_bank=48, cols_per_row=128)

#: Stored name -> spec of every job the smoke runs.
SPECS = {
    "refsync": RefsyncSweepSpec(
        geometry=TIMELINE_GEOMETRY,
        victim_row=24,
        windows=6,
        act_rates=(0, 48),
        phases=(0, 2),
        decoy_rows=(2, 6),
    ),
    "trr": TrrSamplingSpec(
        geometry=TIMELINE_GEOMETRY,
        windows=12,
        capacities=(0, 1, 4),
    ),
    # Same kind, another chip seed, right after "trr" on the same daemon:
    # the per-job memo must not serve the first job's population.
    "trr-seed8": TrrSamplingSpec(
        geometry=TIMELINE_GEOMETRY,
        chip_seed=8,
        windows=12,
        capacities=(0, 1, 4),
    ),
    "sweep": FlipSweepSpec(
        geometry=DramGeometry(num_banks=2, rows_per_bank=24, cols_per_row=128),
        hammer_counts=(100_000, 900_000),
        open_cycles=(10_000_000, 100_000_000),
    ),
    "profile": ChipProfileSpec(
        geometry=DramGeometry(num_banks=2, rows_per_bank=24, cols_per_row=128),
        row_stride=1,
    ),
}


def _stored_bytes(store, name):
    return store.path_for(name).read_bytes()


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

            for name, spec in SPECS.items():
                submitted = client.submit(spec.to_dict(), name=name)
                job = client.wait(submitted["job_id"], timeout=120)
                check(job["state"] == "done", f"{name} job completes via the daemon")
        finally:
            service.stop()

        serial_store = ResultStore(root / "serial")
        reference_store = ResultStore(root / "reference")
        for name, spec in SPECS.items():
            ExperimentRunner(store=serial_store).run(spec, save_as=name)
            check(
                _stored_bytes(service.store, name) == _stored_bytes(serial_store, name),
                f"{name}: daemon result bit-identical to serial",
            )
            with mock.patch.dict(os.environ, {"REPRO_DEFAULT_ENGINE": "reference"}):
                ExperimentRunner(store=reference_store).run(spec, save_as=name)
            check(
                _stored_bytes(reference_store, name) == _stored_bytes(serial_store, name),
                f"{name}: reference engine stores the default tier's bytes",
            )

        # The parity checks above only mean something if the runs flip bits.
        check(
            service.store.load("trr").payload.flips_by_capacity()[0] > 0,
            "undefended trr run latches flips",
        )
        profile = service.store.load("profile").payload.pair.statistics()
        check(
            profile["rh_cells"] > 0 and profile["rp_cells"] > 0,
            "profiling finds cells under both mechanisms",
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
    print("timeline smoke passed: daemon parity, engine parity and nan conventions "
          f"for {', '.join(SPECS)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
