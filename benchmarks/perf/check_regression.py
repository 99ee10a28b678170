"""CI regression gate for the tracked perf microbenchmarks.

Compares a freshly measured ``BENCH_perf.json`` against the committed
baseline, printing a per-case speedup diff (fresh minus committed), and
fails when any case's *speedup* (``reference_seconds / numpy_seconds``:
the reference tier over the compiled tier on the NumPy kernels, both
measured on the same machine in the same run) regressed by more than the
allowed factor.  Comparing speedups rather than absolute times keeps the
gate meaningful on CI runners of arbitrary speed.

Files may carry a third timing column per case — ``compiled_seconds`` /
``compiled_speedup`` (the compiled tier on the C kernels, and NumPy over
C).  The column is optional (runners without a kernel toolchain omit it);
when *both* the baseline and the fresh run measured it for a case, the
compiled speedup is gated by the same regression factor.  A file whose
``schema_version`` is not :data:`SCHEMA_VERSION` is refused.

With ``--check-case-sync`` the gate additionally fails when the committed
baseline drifts out of sync with ``perf_cases``: a case set differing from
``CASE_NAMES``, a description differing from the metadata-derived
``case_description``, or a case carrying only half of the compiled column
pair.

Usage::

    python benchmarks/perf/check_regression.py --baseline BENCH_perf.json \
        --fresh BENCH_perf.fresh.json [--max-regression 2.0] [--check-case-sync]

Exit codes: 0 = ok, 1 = regression / drift, 2 = unusable input (malformed
JSON or another schema version).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: v3 names the compiled-on-NumPy leg ``numpy_seconds`` (v2 called it
#: ``vectorized_seconds``); ``run_perf.py`` writes this version.
SCHEMA_VERSION = 3

#: Optional per-case columns that must appear together or not at all.
COMPILED_FIELDS = ("compiled_seconds", "compiled_speedup")


def _load(path: Path, label: str):
    """Parse one benchmark file, or return ``None`` with a message printed."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"cannot read {label} benchmark file {path}: {error}")
        return None
    if not isinstance(payload, dict) or not isinstance(payload.get("cases"), dict):
        print(f"{label} benchmark file {path} is malformed: expected a 'cases' object")
        return None
    if payload.get("schema_version") != SCHEMA_VERSION:
        print(
            f"{label} benchmark file {path} has schema "
            f"v{payload.get('schema_version')}, expected v{SCHEMA_VERSION}; "
            "re-run benchmarks/perf/run_perf.py"
        )
        return None
    for name, case in payload["cases"].items():
        if not isinstance(case, dict) or not isinstance(case.get("speedup"), (int, float)):
            print(
                f"{label} benchmark file {path} is malformed: case {name!r} "
                "lacks a numeric 'speedup'"
            )
            return None
        for field in COMPILED_FIELDS:
            if field in case and not isinstance(case[field], (int, float)):
                print(
                    f"{label} benchmark file {path} is malformed: case {name!r} "
                    f"has a non-numeric {field!r}"
                )
                return None
    return payload


def _case_sync_failures(baseline: dict, fresh: dict):
    """Baseline/fresh payloads must agree with the ``perf_cases`` metadata."""
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    # Deferred: imports the repro package.  profile_sizes/case_description
    # are metadata-only, so this stays cheap (no workload construction).
    from perf_cases import CASE_NAMES, case_description, profile_sizes

    failures = []
    for label, payload in (("baseline", baseline), ("fresh", fresh)):
        recorded = set(payload["cases"])
        expected = set(CASE_NAMES)
        missing = sorted(expected - recorded)
        extra = sorted(recorded - expected)
        if missing:
            failures.append(
                f"{label}: tracked case(s) {missing} missing — re-run "
                "benchmarks/perf/run_perf.py and commit the refreshed baseline"
            )
        if extra:
            failures.append(
                f"{label}: unknown case(s) {extra} not in perf_cases.CASE_NAMES"
            )
        try:
            sizes = profile_sizes(payload.get("profile", "quick"))
        except ValueError as error:
            failures.append(f"{label}: {error}")
            continue
        for name in sorted(recorded & expected):
            case = payload["cases"][name]
            derived = case_description(name, sizes)
            if case.get("description") != derived:
                failures.append(
                    f"{label}: case {name!r} description drifted from the "
                    f"perf_cases metadata — recorded {case.get('description')!r}, "
                    f"derived {derived!r}; re-run run_perf.py"
                )
            present = [field for field in COMPILED_FIELDS if field in case]
            if present and len(present) != len(COMPILED_FIELDS):
                failures.append(
                    f"{label}: case {name!r} carries {present} without the rest "
                    f"of the compiled column pair {COMPILED_FIELDS}"
                )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, required=True)
    parser.add_argument("--fresh", type=Path, required=True)
    parser.add_argument("--max-regression", type=float, default=2.0,
                        help="fail when fresh speedup < baseline speedup / this factor")
    parser.add_argument("--check-case-sync", action="store_true",
                        help="fail when the baseline drifts from the perf_cases metadata")
    args = parser.parse_args()

    baseline = _load(args.baseline, "baseline")
    fresh = _load(args.fresh, "fresh")
    if baseline is None or fresh is None:
        return 2

    failures = []
    if args.check_case_sync:
        failures.extend(_case_sync_failures(baseline, fresh))

    for name, committed in sorted(baseline["cases"].items()):
        measured = fresh["cases"].get(name)
        if measured is None:
            failures.append(f"{name}: missing from fresh run")
            continue
        floor = committed["speedup"] / args.max_regression
        status = "ok" if measured["speedup"] >= floor else "REGRESSED"
        delta = measured["speedup"] - committed["speedup"]
        print(
            f"{name:24s} baseline {committed['speedup']:8.2f}x  "
            f"fresh {measured['speedup']:8.2f}x  diff {delta:+7.2f}x  "
            f"floor {floor:8.2f}x  {status}"
        )
        if measured["speedup"] < floor:
            failures.append(
                f"{name}: speedup {measured['speedup']:.2f}x fell below "
                f"{floor:.2f}x (baseline {committed['speedup']:.2f}x / "
                f"{args.max_regression:g})"
            )
        # The compiled column is gated only when both runs measured it:
        # a toolchain-less runner (no column in fresh) must not fail the
        # gate, and a newly added column has no baseline to compare yet.
        base_compiled = committed.get("compiled_speedup")
        fresh_compiled = measured.get("compiled_speedup")
        if base_compiled is not None and fresh_compiled is not None:
            compiled_floor = base_compiled / args.max_regression
            compiled_status = "ok" if fresh_compiled >= compiled_floor else "REGRESSED"
            compiled_delta = fresh_compiled - base_compiled
            print(
                f"{name:24s} compiled {base_compiled:8.2f}x  "
                f"fresh {fresh_compiled:8.2f}x  diff {compiled_delta:+7.2f}x  "
                f"floor {compiled_floor:8.2f}x  {compiled_status}"
            )
            if fresh_compiled < compiled_floor:
                failures.append(
                    f"{name}: compiled speedup {fresh_compiled:.2f}x fell below "
                    f"{compiled_floor:.2f}x (baseline {base_compiled:.2f}x / "
                    f"{args.max_regression:g})"
                )
        elif base_compiled is not None:
            print(f"{name:24s} compiled {base_compiled:8.2f}x  "
                  "fresh run has no compiled column (toolchain absent?); not gated")
        elif fresh_compiled is not None:
            print(f"{name:24s} compiled (new column, no committed baseline)")

    for name in sorted(set(fresh["cases"]) - set(baseline["cases"])):
        # Not a failure by itself (--check-case-sync turns drift into one):
        # a fresh-only case simply has no baseline to compare against yet.
        print(f"{name:24s} new case, no committed baseline")

    if failures:
        print("\nperf regression detected:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nall perf cases within the regression budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
