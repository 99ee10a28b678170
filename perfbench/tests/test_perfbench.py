"""Tests of the benchmark itself: seeded inputs, declarations, trace identity."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import run, tracing, workloads  # noqa: E402


def _inputs(seed: int):
    return [workloads.campaign_jobs(seed, r) for r in range(2)]


def test_same_seed_yields_identical_inputs():
    assert json.dumps(_inputs(11)) == json.dumps(_inputs(11))


def test_seed_changes_every_generated_input():
    first, second = _inputs(11), _inputs(12)
    for one, other in zip(first, second):
        assert [p for _, p in one] != [p for _, p in other]
        assert len({json.dumps(p) for _, p in one} & {json.dumps(p) for _, p in other}) == 0
    jobs = first[0]
    assert len(jobs) == workloads.CAMPAIGN_JOBS
    kinds = [payload["kind"] for _, payload in jobs]
    assert {kind: kinds.count(kind) for kind in kinds} == dict(workloads.CAMPAIGN_MIX)


def test_benchmark_json_declares_what_the_benchmark_reports():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
    assert declared["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, _, _ in tracing.LAYER_METRICS
    ]
    for name, _, _, _, moves in tracing.LAYER_METRICS:
        for target in moves:
            workload, metric = target.split(":")
            assert workload in run.WORKLOAD_NAMES, name
            assert metric in {m["name"] for m in declared["end_to_end"]}, name
    for active in tracing.ACTIVE.values():
        assert set(active) <= set(run.WORKLOAD_NAMES)


#: A daemon campaign cut to one job of each kind (the comparison makes the
#: attack and kernel spans fire too), run untraced, traced and untraced
#: again in a fresh interpreter: patches never leak into the test process.
_SMALL_TRACED_CAMPAIGN = """
import json, shutil, sys
sys.path.insert(0, sys.argv[1])
from perfbench import run
run.prepare_environment()
from perfbench import workloads
workloads.CAMPAIGN_MIX = (
    ("chip_profile", 1), ("flip_sweep", 1), ("trr_sampling", 1),
    ("refsync_sweep", 1), ("defense_matrix", 1), ("comparison", 1),
)
work_dir = run.WORK / "test-small-campaign"
shutil.rmtree(work_dir, ignore_errors=True)
workload = workloads.DaemonCampaign(5, work_dir)
try:
    workload.setup()
    rounds, metrics = run.traced_rounds(workload, {"test": True})
finally:
    workload.close()
    shutil.rmtree(work_dir, ignore_errors=True)
print(json.dumps({
    "digests": [r.digest for r in rounds],
    "problems": [p for r in rounds for p in r.problems],
    "flips": metrics["core.bfa.flips"]["value"],
}))
"""


@pytest.mark.slow
def test_small_seed_traced_round_matches_untraced_byte_for_byte():
    done = subprocess.run(
        [sys.executable, "-c", _SMALL_TRACED_CAMPAIGN, str(ROOT)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    outcome = json.loads(done.stdout.strip().splitlines()[-1])
    before, traced, after = outcome["digests"]
    assert before == traced == after
    assert outcome["problems"] == []
    assert outcome["flips"] > 0
