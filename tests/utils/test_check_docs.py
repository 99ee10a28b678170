"""The docs consistency checker (tools/check_docs.py) and its guarantees."""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
CHECKER = REPO_ROOT / "tools" / "check_docs.py"


def load_checker():
    spec = importlib.util.spec_from_file_location("check_docs", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCheckerPasses:
    def test_repo_docs_are_consistent(self):
        """The committed docs suite satisfies every check."""
        result = subprocess.run(
            [sys.executable, str(CHECKER)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "passed" in result.stdout


class TestCheckerCatches:
    def test_kind_table_parsing(self):
        checker = load_checker()
        text = (
            "# API\n\n"
            "| kind | spec class |\n| --- | --- |\n"
            "| `comparison` | `ComparisonSpec` |\n"
            "| `flip_sweep` | `FlipSweepSpec` |\n\n"
            "| other | table |\n| `not_a_kind` | x |\n"
        )
        assert checker.documented_kinds(text) == ["comparison", "flip_sweep"]

    def test_missing_kind_reported(self):
        checker = load_checker()
        # A kind table that documents only one kind must flag the rest.
        errors = checker.check_kinds("| kind |\n| --- |\n| `comparison` |\n")
        assert any("defense_matrix" in error for error in errors)

    def test_unknown_kind_reported(self):
        checker = load_checker()
        full = (REPO_ROOT / "docs" / "API.md").read_text()
        errors = checker.check_kinds(full + "\n| kind |\n| --- |\n| `imaginary_kind` |\n")
        assert any("imaginary_kind" in error for error in errors)

    def test_unmentioned_export_reported(self):
        checker = load_checker()
        errors = checker.check_exported_symbols("this text mentions nothing")
        assert errors  # every export is missing from that text

    def test_broken_link_detection_logic(self, tmp_path, monkeypatch):
        checker = load_checker()
        docs = tmp_path / "docs"
        docs.mkdir()
        (tmp_path / "README.md").write_text(
            "[ok](docs/REAL.md) and [broken](docs/GHOST.md) and [web](https://x.test/y.md)\n"
        )
        (docs / "REAL.md").write_text("hi\n")
        monkeypatch.setattr(checker, "REPO_ROOT", tmp_path)
        errors = checker.check_links()
        assert len(errors) == 1 and "GHOST.md" in errors[0]

    def test_retired_tier_name_reported(self):
        checker = load_checker()
        text = (
            'runs with engine="compiled" or engine="reference"\n'
            "set REPRO_DEFAULT_ENGINE=compiled\n"
            'a stale engine="vectorized" call\n'
            "and REPRO_DEFAULT_ENGINE=vectorized\n"
        )
        errors = checker.tier_name_errors("README.md", text)
        assert [error.split(":")[:2] for error in errors] == [["README.md", "3"], ["README.md", "4"]]
        assert all("'vectorized'" in error for error in errors)
