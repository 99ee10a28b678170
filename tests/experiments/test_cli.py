"""The ``python -m repro`` command line: list / run / report."""

import json

import pytest

from repro.experiments.cli import main


class TestList:
    def test_lists_kinds_and_results(self, tmp_path, capsys):
        assert main(["list", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        for kind in ("comparison", "defense_matrix", "flip_sweep", "chip_profile", "profile_density"):
            assert kind in out
        assert "(none)" in out


class TestRunAndReport:
    def test_run_stores_and_report_renders(self, tmp_path, capsys):
        # flip_sweep via a spec file (small geometry keeps this fast)
        spec_payload = {
            "kind": "flip_sweep",
            "geometry": {"num_banks": 1, "rows_per_bank": 24, "cols_per_row": 128},
            "chip_seed": 3,
            "hammer_counts": [50000, 100000],
            "open_cycles": [5000000],
            "max_rows_per_bank": 4,
        }
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec_payload))

        store_dir = tmp_path / "results"
        assert main([
            "run", "--spec", str(spec_file), "--store", str(store_dir), "--save-as", "sweep",
        ]) == 0
        out = capsys.readouterr().out
        assert "stored result 'sweep'" in out
        assert (store_dir / "sweep.json").is_file()

        assert main(["list", "--store", str(store_dir)]) == 0
        assert "sweep" in capsys.readouterr().out

        assert main(["report", "sweep", "--store", str(store_dir)]) == 0
        report = capsys.readouterr().out
        assert "flip sweep" in report
        assert "rowpress_to_rowhammer_ratio" in report

    def test_report_missing_result_fails(self, tmp_path, capsys):
        assert main(["report", "ghost", "--store", str(tmp_path)]) == 1
        assert "no stored result" in capsys.readouterr().err

    def test_report_non_envelope_json_fails_cleanly(self, tmp_path, capsys):
        (tmp_path / "legacy.json").write_text(json.dumps({"rows": []}))
        assert main(["report", "legacy", "--store", str(tmp_path)]) == 1
        assert "cannot load 'legacy'" in capsys.readouterr().err

    def test_run_rejects_path_traversal_name(self, tmp_path, capsys):
        store_dir = tmp_path / "results"
        assert main([
            "run", "chip_profile", "--store", str(store_dir), "--save-as", "../x",
        ]) == 2
        assert "invalid result name '../x'" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_report_path_traversal_name_is_not_found(self, tmp_path, capsys):
        (tmp_path / "x.json").write_text(json.dumps({"rows": []}))
        assert main(["report", "../x", "--store", str(tmp_path / "results")]) == 1
        assert "no stored result" in capsys.readouterr().err

    def test_run_without_kind_or_spec_fails(self, tmp_path, capsys):
        assert main(["run", "--store", str(tmp_path)]) == 2
        assert "provide an experiment kind" in capsys.readouterr().err

    def test_targeted_source_equals_target_fails_cleanly(self, tmp_path, capsys):
        assert main([
            "run", "comparison", "--objective", "targeted",
            "--source-class", "2", "--target-class", "2",
            "--store", str(tmp_path),
        ]) == 2
        assert "must differ" in capsys.readouterr().err

    def test_partial_spec_file_runs_with_defaults(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"kind": "trr_sampling"}))
        assert main(["run", "--spec", str(spec_file), "--store", str(tmp_path / "s")]) == 0

    def test_misspelt_spec_field_fails_cleanly(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"kind": "comparison", "sed": 1}))
        assert main(["run", "--spec", str(spec_file), "--store", str(tmp_path)]) == 2
        assert "'sed'" in capsys.readouterr().err

    def test_unknown_model_flag_fails_cleanly(self, tmp_path, capsys):
        assert main([
            "run", "comparison", "--models", "nosuch", "--store", str(tmp_path),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid spec: unknown model 'nosuch'")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["run", "submit"])
    def test_unknown_model_in_spec_file_fails_cleanly(self, tmp_path, capsys, command):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"kind": "comparison", "model_keys": ["nosuch"]}))
        where = "--store" if command == "run" else "--queue"
        # submit rejects the spec before it looks for a daemon
        assert main([command, "--spec", str(spec_file), where, str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid spec: unknown model 'nosuch'")
        assert len(err.strip().splitlines()) == 1


class TestBackendChoices:
    @pytest.mark.parametrize("command", ["run", "serve"])
    def test_thread_backend_is_rejected(self, tmp_path, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--backend", "thread", "--store", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err


class TestRetiredFailureModelEnv:
    def test_stale_failure_model_variables_are_ignored(self, tmp_path, monkeypatch):
        # Variables of the retired multi-host failure model must neither
        # be validated nor parsed by the local backends.
        from repro.experiments import ExperimentService

        for name, value in (("FALLBACK_BACKEND", "bogus"), ("CHUNK_TIMEOUT", "abc")):
            monkeypatch.setenv(f"REPRO_{name}", value)
        ExperimentService(tmp_path / "q", tmp_path / "s", backend="serial", port=0)
        assert main(["run", "chip_profile", "--store", str(tmp_path / "store")]) == 0


class TestPackageSurface:
    def test_lazy_top_level_exports(self):
        import repro

        for name in (
            "prepare_victim",
            "ComparisonConfig",
            "get_spec",
            "ComparisonSpec",
            "ExperimentRunner",
            "ResultStore",
            "VictimCache",
        ):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_retired_execution_paths_are_gone(self):
        import repro
        import repro.core
        import repro.experiments

        assert "compare_mechanisms_for_model" not in repro.__all__
        assert not hasattr(repro.core, "compare_mechanisms_for_model")
        assert not hasattr(repro.experiments, "ThreadPoolBackend")

    def test_retired_watchdog_surface_is_gone(self, tmp_path, capsys):
        import repro.experiments
        from repro.experiments import ExperimentService
        from repro.experiments.cli import _build_parser

        with pytest.raises(TypeError):
            ExperimentService(tmp_path / "q", tmp_path / "s", port=0, watchdog_timeout=1)
        # Parsed, not run: a serve that accepted the flag would block.
        with pytest.raises(SystemExit) as excinfo:
            _build_parser().parse_args(["serve", "--watchdog-timeout", "5"])
        assert excinfo.value.code == 2
        assert "--watchdog-timeout" in capsys.readouterr().err
        assert not hasattr(repro.experiments, "WatchdogTimeout")
        assert "WatchdogTimeout" not in repro.experiments.__all__
        health = ExperimentService(tmp_path / "q", tmp_path / "s", port=0)._dispatch(
            {"op": "health"}
        )["health"]
        assert "abandoned_workers" not in health

    def test_retired_cache_surface_is_gone(self, tmp_path):
        from repro.experiments import ExperimentRunner, ExperimentService, VictimCache

        health = ExperimentService(tmp_path / "q", tmp_path / "s", port=0)._dispatch(
            {"op": "health"}
        )["health"]
        assert "evictions" not in health["victims"]
        with pytest.raises(TypeError):
            VictimCache(max_entries=1)
        assert not hasattr(VictimCache, "checkout")
        assert not hasattr(ExperimentRunner, "run_many")

    def test_unknown_attribute_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.does_not_exist

    def test_module_entry_point_exists(self):
        import repro.__main__  # noqa: F401 - importable means `python -m repro` resolves
