"""Run the tracked perf microbenchmarks and write ``BENCH_perf.json``.

Usage::

    python benchmarks/perf/run_perf.py                 # quick profile, repo-root output
    python benchmarks/perf/run_perf.py --profile full
    python benchmarks/perf/run_perf.py --output /tmp/bench.json --repeats 5

Each case measures the ``reference`` tier and the ``compiled`` tier on the
NumPy kernels on the same workload (best wall-clock of ``--repeats`` runs)
and records ``speedup`` (reference over NumPy).  Cases that expose a
``compiled`` callable are additionally measured on the C kernels, recorded
as ``compiled_speedup`` (NumPy over C) — but only when a backend actually
loaded (otherwise the C column would silently time the NumPy kernels), and
only after :func:`repro.nn.kernels.warmup` so one-time kernel build cost
never pollutes a measurement.  The output is schema-versioned so the CI
regression gate (``check_regression.py``) refuses a file in another
format instead of misreading it.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

from check_regression import SCHEMA_VERSION
from perf_cases import REPO_ROOT, PerfCase, build_cases

from repro.nn import kernels


def _seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def measure(case: PerfCase, repeats: int, with_compiled: bool) -> dict:
    # Interleave the legs (ref, numpy, [compiled], ref, ...) so all see the
    # same machine conditions; timing all reference repeats first would let
    # CPU frequency drift or noisy neighbours bias the ratio on busy runners.
    reference_seconds = float("inf")
    numpy_seconds = float("inf")
    compiled_seconds = float("inf")
    timed_compiled = with_compiled and case.compiled is not None
    for _ in range(repeats):
        reference_seconds = min(reference_seconds, _seconds(case.reference))
        numpy_seconds = min(numpy_seconds, _seconds(case.numpy))
        if timed_compiled:
            compiled_seconds = min(compiled_seconds, _seconds(case.compiled))
    result = {
        "description": case.description,
        "reference_seconds": reference_seconds,
        "numpy_seconds": numpy_seconds,
        "speedup": reference_seconds / numpy_seconds,
    }
    if timed_compiled:
        result["compiled_seconds"] = compiled_seconds
        result["compiled_speedup"] = numpy_seconds / compiled_seconds
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", choices=("quick", "full"), default="quick")
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per leg; the best wall-clock is kept")
    parser.add_argument("--output", type=Path, default=REPO_ROOT / "BENCH_perf.json")
    parser.add_argument("--no-compiled", action="store_true",
                        help="skip the C-kernel leg even when a backend is available")
    args = parser.parse_args()

    with_compiled = not args.no_compiled and kernels.available()
    if with_compiled:
        # Pay the kernel build + self-validation cost up front, outside the
        # timed region.
        kernels.warmup()
        print(f"C kernels: backend {kernels.backend_name()!r} (warmed up)")
    else:
        print("C kernels: unavailable, timing reference + numpy only")

    payload = {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "benchmarks/perf/run_perf.py",
        "profile": args.profile,
        "repeats": args.repeats,
        "python": platform.python_version(),
        "kernel_backend": kernels.backend_name() if with_compiled else None,
        "cases": {},
    }
    for case in build_cases(args.profile):
        print(f"[{case.name}] {case.description}")
        result = measure(case, args.repeats, with_compiled)
        payload["cases"][case.name] = result
        lines = (
            f"  reference  {result['reference_seconds'] * 1e3:9.1f} ms\n"
            f"  numpy      {result['numpy_seconds'] * 1e3:9.1f} ms\n"
            f"  speedup    {result['speedup']:9.2f}x"
        )
        if "compiled_seconds" in result:
            lines += (
                f"\n  compiled   {result['compiled_seconds'] * 1e3:9.1f} ms"
                f"\n  numpy/compiled {result['compiled_speedup']:9.2f}x"
            )
        print(lines)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
