"""Tests for the perf regression gate (benchmarks/perf/check_regression.py)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SCRIPT = REPO_ROOT / "benchmarks" / "perf" / "check_regression.py"


@pytest.fixture(scope="module")
def check_regression():
    spec = importlib.util.spec_from_file_location("check_regression_under_test", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def payload(cases, schema_version=3, descriptions=None, compiled=None):
    """Build a benchmark payload; ``compiled`` maps case name -> compiled secs."""
    built = {}
    for name, (ref, numpy) in cases.items():
        case = {
            "description": (descriptions or {}).get(name, name),
            "reference_seconds": ref,
            "numpy_seconds": numpy,
            "speedup": ref / numpy,
        }
        comp = (compiled or {}).get(name)
        if comp is not None:
            case["compiled_seconds"] = comp
            case["compiled_speedup"] = numpy / comp
        built[name] = case
    return {"schema_version": schema_version, "cases": built, "profile": "quick"}


def run_gate(check_regression, monkeypatch, tmp_path, baseline, fresh, *extra):
    baseline_path = tmp_path / "baseline.json"
    fresh_path = tmp_path / "fresh.json"
    baseline_path.write_text(baseline if isinstance(baseline, str) else json.dumps(baseline))
    fresh_path.write_text(fresh if isinstance(fresh, str) else json.dumps(fresh))
    monkeypatch.setattr(
        sys, "argv",
        ["check_regression.py", "--baseline", str(baseline_path), "--fresh", str(fresh_path),
         *extra],
    )
    return check_regression.main()


class TestRegressionGate:
    def test_all_within_budget_passes(self, check_regression, monkeypatch, tmp_path):
        baseline = payload({"a": (4.0, 1.0), "b": (6.0, 1.0)})
        fresh = payload({"a": (3.0, 1.0), "b": (5.0, 1.0)})
        assert run_gate(check_regression, monkeypatch, tmp_path, baseline, fresh) == 0

    def test_below_threshold_regression_fails(self, check_regression, monkeypatch, tmp_path):
        baseline = payload({"a": (4.0, 1.0)})  # 4.0x committed
        fresh = payload({"a": (1.5, 1.0)})  # 1.5x < 4.0 / 2
        assert run_gate(check_regression, monkeypatch, tmp_path, baseline, fresh) == 1

    def test_exactly_at_floor_passes(self, check_regression, monkeypatch, tmp_path):
        baseline = payload({"a": (4.0, 1.0)})
        fresh = payload({"a": (2.0, 1.0)})  # exactly baseline / 2
        assert run_gate(check_regression, monkeypatch, tmp_path, baseline, fresh) == 0

    def test_missing_case_in_fresh_fails(self, check_regression, monkeypatch, tmp_path):
        baseline = payload({"a": (4.0, 1.0), "gone": (2.0, 1.0)})
        fresh = payload({"a": (4.0, 1.0)})
        assert run_gate(check_regression, monkeypatch, tmp_path, baseline, fresh) == 1

    def test_newly_added_case_without_baseline_passes(
        self, check_regression, monkeypatch, tmp_path, capsys
    ):
        """A fresh-only case has nothing to regress against — noted, not fatal."""
        baseline = payload({"a": (4.0, 1.0)})
        fresh = payload({"a": (4.0, 1.0), "new_case": (3.0, 1.0)})
        assert run_gate(check_regression, monkeypatch, tmp_path, baseline, fresh) == 0
        assert "new case, no committed baseline" in capsys.readouterr().out

    def test_malformed_baseline_json_is_unusable(self, check_regression, monkeypatch, tmp_path):
        fresh = payload({"a": (4.0, 1.0)})
        assert run_gate(check_regression, monkeypatch, tmp_path, "{not json", fresh) == 2

    def test_baseline_without_cases_object_is_unusable(
        self, check_regression, monkeypatch, tmp_path
    ):
        fresh = payload({"a": (4.0, 1.0)})
        assert run_gate(
            check_regression, monkeypatch, tmp_path, {"schema_version": 1}, fresh
        ) == 2

    def test_case_without_speedup_is_unusable(self, check_regression, monkeypatch, tmp_path):
        fresh = payload({"a": (4.0, 1.0)})
        truncated = {"schema_version": 3, "cases": {"a": {"reference_seconds": 4.0}}}
        assert run_gate(check_regression, monkeypatch, tmp_path, truncated, fresh) == 2

    def test_schema_mismatch_is_unusable(self, check_regression, monkeypatch, tmp_path):
        baseline = payload({"a": (4.0, 1.0)}, schema_version=1)
        fresh = payload({"a": (4.0, 1.0)}, schema_version=2)
        assert run_gate(check_regression, monkeypatch, tmp_path, baseline, fresh) == 2

    def test_old_column_names_are_refused_not_misread(
        self, check_regression, monkeypatch, tmp_path, capsys
    ):
        """v2 files named the NumPy leg ``vectorized_seconds``: refused even when both agree."""
        old = payload({"a": (4.0, 1.0)}, schema_version=2)
        old["cases"]["a"]["vectorized_seconds"] = old["cases"]["a"].pop("numpy_seconds")
        assert run_gate(check_regression, monkeypatch, tmp_path, old, old) == 2
        assert f"expected v{check_regression.SCHEMA_VERSION}" in capsys.readouterr().out

    def test_committed_benchmark_has_current_schema(self, check_regression):
        committed = json.loads((REPO_ROOT / "BENCH_perf.json").read_text())
        assert committed["schema_version"] == check_regression.SCHEMA_VERSION
        for case in committed["cases"].values():
            assert case["speedup"] == case["reference_seconds"] / case["numpy_seconds"]
            if "compiled_seconds" in case:
                assert case["compiled_speedup"] == case["numpy_seconds"] / case["compiled_seconds"]

    def test_custom_max_regression_factor(self, check_regression, monkeypatch, tmp_path):
        baseline = payload({"a": (4.0, 1.0)})
        fresh = payload({"a": (2.5, 1.0)})  # 2.5x: fails /1.2, passes /2
        assert run_gate(
            check_regression, monkeypatch, tmp_path, baseline, fresh,
            "--max-regression", "1.2",
        ) == 1
        assert run_gate(
            check_regression, monkeypatch, tmp_path, baseline, fresh,
            "--max-regression", "2.0",
        ) == 0


class TestCompiledColumn:
    def test_compiled_regression_fails(self, check_regression, monkeypatch, tmp_path):
        baseline = payload({"a": (4.0, 1.0)}, compiled={"a": 0.25})  # 4.0x compiled
        fresh = payload({"a": (4.0, 1.0)}, compiled={"a": 1.0})  # 1.0x < 4.0 / 2
        assert run_gate(check_regression, monkeypatch, tmp_path, baseline, fresh) == 1

    def test_compiled_within_budget_passes(self, check_regression, monkeypatch, tmp_path):
        baseline = payload({"a": (4.0, 1.0)}, compiled={"a": 0.4})  # 2.5x
        fresh = payload({"a": (4.0, 1.0)}, compiled={"a": 0.5})  # 2.0x >= 2.5 / 2
        assert run_gate(check_regression, monkeypatch, tmp_path, baseline, fresh) == 0

    def test_toolchainless_fresh_run_is_not_gated(
        self, check_regression, monkeypatch, tmp_path, capsys
    ):
        """A fresh run without the compiled column (no toolchain) must pass."""
        baseline = payload({"a": (4.0, 1.0)}, compiled={"a": 0.25})
        fresh = payload({"a": (4.0, 1.0)})
        assert run_gate(check_regression, monkeypatch, tmp_path, baseline, fresh) == 0
        assert "no compiled column" in capsys.readouterr().out

    def test_new_compiled_column_without_baseline_passes(
        self, check_regression, monkeypatch, tmp_path, capsys
    ):
        baseline = payload({"a": (4.0, 1.0)})
        fresh = payload({"a": (4.0, 1.0)}, compiled={"a": 0.25})
        assert run_gate(check_regression, monkeypatch, tmp_path, baseline, fresh) == 0
        assert "new column, no committed baseline" in capsys.readouterr().out

    def test_non_numeric_compiled_column_is_unusable(
        self, check_regression, monkeypatch, tmp_path
    ):
        fresh = payload({"a": (4.0, 1.0)})
        bad = payload({"a": (4.0, 1.0)})
        bad["cases"]["a"]["compiled_seconds"] = "fast"
        assert run_gate(check_regression, monkeypatch, tmp_path, bad, fresh) == 2


class TestCaseSync:
    def _tracked(self):
        perf_dir = str(SCRIPT.parent)
        if perf_dir not in sys.path:
            sys.path.insert(0, perf_dir)
        from perf_cases import CASE_NAMES

        return CASE_NAMES

    def _descriptions(self):
        perf_dir = str(SCRIPT.parent)
        if perf_dir not in sys.path:
            sys.path.insert(0, perf_dir)
        from perf_cases import case_description, profile_sizes

        sizes = profile_sizes("quick")
        return {name: case_description(name, sizes) for name in self._tracked()}

    def test_committed_benchmark_matches_tracked_cases(self):
        """The repo's own BENCH_perf.json must never drift from perf_cases."""
        committed = json.loads((REPO_ROOT / "BENCH_perf.json").read_text())
        assert set(committed["cases"]) == set(self._tracked())

    def test_committed_benchmark_descriptions_are_derived(self):
        """Committed descriptions must equal the metadata-derived strings."""
        committed = json.loads((REPO_ROOT / "BENCH_perf.json").read_text())
        perf_dir = str(SCRIPT.parent)
        if perf_dir not in sys.path:
            sys.path.insert(0, perf_dir)
        from perf_cases import case_description, profile_sizes

        sizes = profile_sizes(committed.get("profile", "quick"))
        for name, case in committed["cases"].items():
            assert case["description"] == case_description(name, sizes), name

    def test_sync_flag_fails_on_baseline_drift(self, check_regression, monkeypatch, tmp_path):
        names = self._tracked()
        descriptions = self._descriptions()
        complete = payload({name: (4.0, 1.0) for name in names}, descriptions=descriptions)
        stale = payload({name: (4.0, 1.0) for name in names[:-1]}, descriptions=descriptions)
        assert run_gate(
            check_regression, monkeypatch, tmp_path, stale, complete, "--check-case-sync"
        ) == 1

    def test_sync_flag_fails_on_unknown_case(self, check_regression, monkeypatch, tmp_path):
        names = self._tracked()
        descriptions = self._descriptions()
        complete = payload({name: (4.0, 1.0) for name in names}, descriptions=descriptions)
        extra = payload(
            {**{name: (4.0, 1.0) for name in names}, "mystery": (2.0, 1.0)},
            descriptions=descriptions,
        )
        assert run_gate(
            check_regression, monkeypatch, tmp_path, extra, complete, "--check-case-sync"
        ) == 1

    def test_sync_flag_fails_on_description_drift(
        self, check_regression, monkeypatch, tmp_path, capsys
    ):
        """A hand-edited description must trip the sync gate."""
        descriptions = self._descriptions()
        complete = payload(
            {name: (4.0, 1.0) for name in self._tracked()}, descriptions=descriptions
        )
        drifted = json.loads(json.dumps(complete))
        first = sorted(drifted["cases"])[0]
        drifted["cases"][first]["description"] = "hand-edited text"
        assert run_gate(
            check_regression, monkeypatch, tmp_path, drifted, complete, "--check-case-sync"
        ) == 1
        assert "description drifted" in capsys.readouterr().out

    def test_sync_flag_fails_on_half_compiled_pair(
        self, check_regression, monkeypatch, tmp_path, capsys
    ):
        """compiled_seconds without compiled_speedup is a drift failure."""
        descriptions = self._descriptions()
        complete = payload(
            {name: (4.0, 1.0) for name in self._tracked()}, descriptions=descriptions
        )
        half = json.loads(json.dumps(complete))
        first = sorted(half["cases"])[0]
        half["cases"][first]["compiled_seconds"] = 1.0
        assert run_gate(
            check_regression, monkeypatch, tmp_path, half, complete, "--check-case-sync"
        ) == 1
        assert "compiled column pair" in capsys.readouterr().out

    def test_sync_flag_passes_when_in_sync(self, check_regression, monkeypatch, tmp_path):
        complete = payload(
            {name: (4.0, 1.0) for name in self._tracked()},
            descriptions=self._descriptions(),
        )
        assert run_gate(
            check_regression, monkeypatch, tmp_path, complete, complete, "--check-case-sync"
        ) == 0
