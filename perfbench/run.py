"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload cold_row --seed 1 --seconds 30 --trace 0

The workloads (``cold_row``, ``attack_warm``, ``daemon_campaign``) are
described in :mod:`perfbench.workloads`.  Everything runs in this process
on the serial backend with the ``compiled`` engine tier; the run fails
(non-zero exit, no result) when the compiled kernel backend does not load,
so the vectorized fallback is never timed under the compiled label.

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), then measures as many rounds as ``--seconds`` holds at the
workload's typical round time (at least one) and reports the end-to-end
metrics.  ``--trace 1`` runs round 0 untraced, again with every layer
boundary wrapped by :mod:`perfbench.tracing`, and untraced once more, and
reports the per-layer metrics; all three must produce identical result
digests, and the traced round's extra wall time is reported as the
tracing overhead.  The spans are written to ``.perfbench/traces/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
run's environment, result digests and per-round details.  All files the
run writes stay under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench"
WORKLOAD_NAMES = ("cold_row", "attack_warm", "daemon_campaign")


class BenchmarkError(RuntimeError):
    """The environment cannot produce a valid measurement."""


def prepare_environment() -> Dict[str, Any]:
    """Point the program at the checkout and load the compiled kernels.

    Returns the environment record (kernel backend, Python, NumPy, nproc);
    raises :class:`BenchmarkError` when the sources are missing or the
    compiled backend did not load.
    """
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program sources under {ROOT / 'src'}")
    # Before the first repro import: the kernel cache stays in the
    # checkout, and every engine=None call site resolves to compiled.
    os.environ["REPRO_KERNEL_CACHE"] = str(WORK / "kernels")
    os.environ["REPRO_DEFAULT_ENGINE"] = "compiled"
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)

    import numpy as np
    from repro.nn import kernels

    validated = kernels.warmup()
    backend = kernels.backend_name()
    if backend is None or "conv2d_forward" not in validated:
        raise BenchmarkError(
            f"compiled kernel backend did not load (backend={backend}, kernels={list(validated)})"
        )
    return {
        "kernel_backend": backend,
        "kernels": list(validated),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


def measure_rounds(workload, seconds: float) -> List[Any]:
    """As many rounds as fit ``seconds`` at the workload's typical pace."""
    count = max(1, int(seconds // workload.round_seconds))
    return [workload.run_round(index) for index in range(count)]


def end_to_end_metrics(setups: List[float], rounds: List[Any]) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics of an untraced run."""
    import numpy as np

    latencies = [latency for r in rounds for latency in r.job_latencies]
    p50, p90 = np.percentile(latencies, [50, 90])
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(statistics.median(r.wall_s for r in rounds), "s"),
        "jobs_per_s": _metric(len(latencies) / sum(r.job_seconds for r in rounds), "1/s"),
        "job_latency_s.p50": _metric(p50, "s"),
        "job_latency_s.p90": _metric(p90, "s"),
        # ru_maxrss is the process high-water mark; one run is one workload.
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_rounds(workload, meta: Dict[str, Any]) -> Tuple[List[Any], Dict[str, Dict[str, Any]]]:
    """Round 0 untraced, traced, and untraced again; returns them and the layer metrics.

    The tracing overhead is the traced wall time minus the mean of the two
    untraced ones, which bracket it so that warm-up and drift do not land
    on one side.  The traced round carries two extra checks: its result
    digest equals both untraced rounds', and every span declared active on
    this workload fired.
    """
    from perfbench import tracing

    before = workload.run_round(0)
    workload.repeat_setup()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = workload.run_round(0)
    finally:
        tracer.uninstall()
    counters = dict(workload.round_counters)
    workload.repeat_setup()
    after = workload.run_round(0)
    for name, value in counters.items():
        tracer.count(name, value)
    tracer.count("trace.overhead_s", traced.wall_s - (before.wall_s + after.wall_s) / 2)
    summary = tracer.summary()
    traced.check(
        traced.digest == before.digest == after.digest,
        "traced round's results differ from the untraced rounds'",
    )
    silent = tracing.silent_spans(summary, workload.name)
    traced.check(not silent, f"declared spans never fired: {silent}")
    tracing.write_trace(
        WORK / "traces" / f"{workload.name}-seed{workload.seed}.json", tracer, summary, meta
    )
    return [before, traced, after], tracing.layer_metrics(summary)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        env = prepare_environment()
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    from perfbench import workloads

    work_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    meta = {"workload": args.workload, "seed": args.seed, "env": env}
    try:
        setups = []
        for _ in range(1 if args.trace else workload.setup_repeats):
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
        if args.trace:
            rounds, metrics = traced_rounds(workload, meta)
        else:
            rounds = measure_rounds(workload, args.seconds)
            metrics = end_to_end_metrics(setups, rounds)
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = workload.setup_attempted + sum(r.attempted for r in rounds)
    failed = workload.setup_failed + sum(r.failed for r in rounds)
    info = dict(
        meta,
        setups_s=setups,
        rounds=[{"wall_s": r.wall_s, "digest": r.digest, "details": r.details} for r in rounds],
        problems=workload.setup_problems + [p for r in rounds for p in r.problems],
    )
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
