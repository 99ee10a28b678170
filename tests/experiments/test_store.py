"""ResultStore: every persisted result type reloads losslessly."""

import json
import os

import numpy as np
import pytest

from repro.core.comparison import MechanismOutcome, ModelComparisonResult
from repro.core.results import AttackEvent, AttackResult
from repro.dram.geometry import DramGeometry
from repro.experiments.cli import main
from repro.experiments.store import check_result_name
from repro.experiments import (
    SCHEMA_VERSION,
    ChipProfileSpec,
    ComparisonSpec,
    DefenseMatrixSpec,
    ExperimentResult,
    ExperimentRunner,
    FlipSweepSpec,
    IntegrityError,
    ProfileDensityOutcome,
    ProfileDensitySpec,
    ResultStore,
    fsck_store,
    verify_envelope,
)

SMALL_GEOMETRY = DramGeometry(num_banks=1, rows_per_bank=24, cols_per_row=128)


def _attack_result(flips=2, mechanism="rowpress") -> AttackResult:
    events = [
        AttackEvent(
            iteration=index,
            tensor_name="layer.weight",
            weight_index=3 * index,
            bit_position=7,
            int_before=5,
            int_after=-123,
            loss_after=1.5 + index,
            accuracy_after=50.0 - index,
        )
        for index in range(flips)
    ]
    return AttackResult(
        model_name="ResNet-20",
        mechanism=mechanism,
        accuracy_before=88.5,
        accuracy_after=50.0 - (flips - 1),
        target_accuracy=12.0,
        num_flips=flips,
        converged=False,
        events=events,
        accuracy_curve=[88.5] + [50.0 - index for index in range(flips)],
        loss_curve=[0.5] * (flips + 1),
        candidate_bits=1234,
    )


def _comparison_payload():
    rowhammer = MechanismOutcome("rowhammer")
    rowhammer.results = [_attack_result(3, "rowhammer")]
    rowpress = MechanismOutcome("rowpress")
    rowpress.results = [_attack_result(2, "rowpress")]
    return [
        ModelComparisonResult(
            model_key="resnet20",
            display_name="ResNet-20",
            dataset_name="CIFAR-10",
            num_parameters=271_098,
            clean_accuracy=88.5,
            random_guess_accuracy=10.0,
            rowhammer=rowhammer,
            rowpress=rowpress,
        )
    ]


class TestEnvelope:
    def test_envelope_shape_and_listing(self, tmp_path):
        store = ResultStore(tmp_path)
        result = ExperimentResult(spec=ComparisonSpec(), payload=_comparison_payload())
        path = store.save("table1", result)
        envelope = json.loads(path.read_text())
        assert envelope["schema_version"] == SCHEMA_VERSION
        assert envelope["kind"] == "comparison"
        assert envelope["spec"]["kind"] == "comparison"
        assert store.names() == ["table1"]
        assert "table1" in store

    def test_version_mismatch_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("x", ExperimentResult(spec=ComparisonSpec(), payload=_comparison_payload()))
        payload = json.loads(store.path_for("x").read_text())
        payload["schema_version"] = 999
        store.path_for("x").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="schema version"):
            store.load("x")

    def test_foreign_json_ignored_by_names(self, tmp_path):
        store = ResultStore(tmp_path)
        (tmp_path / "legacy.json").write_text(json.dumps({"rows": []}))
        store.save("real", ExperimentResult(spec=ComparisonSpec(), payload=_comparison_payload()))
        assert store.names() == ["real"]


class TestResultNames:
    """A result name is one path component: it cannot leave the store."""

    @pytest.mark.parametrize("name", ["", ".", "..", "../x", "a/b", "/etc/x", "a\0b"])
    def test_non_component_names_rejected(self, tmp_path, name):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ValueError, match="invalid result name"):
            check_result_name(name)
        with pytest.raises(ValueError, match="invalid result name"):
            store.path_for(name)
        assert name not in store

    def test_save_outside_the_store_is_refused(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        result = ExperimentResult(spec=ComparisonSpec(), payload=_comparison_payload())
        with pytest.raises(ValueError, match="invalid result name"):
            store.save("../x", result)
        assert not (tmp_path / "x.json").exists()

    def test_plain_names_accepted(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.path_for("table1.v2") == tmp_path / "table1.v2.json"


class TestIntegrity:
    """Schema-2 envelopes carry a sha256 digest verified on every load."""

    def _saved(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("r", ExperimentResult(spec=ComparisonSpec(), payload=_comparison_payload()))
        return store

    def test_envelope_carries_content_digest(self, tmp_path):
        store = self._saved(tmp_path)
        envelope = json.loads(store.path_for("r").read_text())
        assert envelope["schema_version"] == SCHEMA_VERSION
        assert envelope["integrity"]["algo"] == "sha256"
        assert len(envelope["integrity"]["digest"]) == 64
        verify_envelope(store.path_for("r"), envelope)  # does not raise

    def test_tampered_payload_fails_load(self, tmp_path):
        store = self._saved(tmp_path)
        envelope = json.loads(store.path_for("r").read_text())
        envelope["payload"]["comparisons"][0]["clean_accuracy"] = 11.1  # silent flip
        store.path_for("r").write_text(json.dumps(envelope, indent=2))
        with pytest.raises(IntegrityError, match="digest mismatch"):
            store.load("r")
        assert issubclass(IntegrityError, ValueError)  # old callers still catch it

    def test_tampered_file_fails_streaming_and_after_a_cached_parse(self, tmp_path):
        # Verification is not a property of one entry point: the streaming
        # path checks too, and a store that indexed the file before it was
        # tampered with rejects the rewritten file as well.
        store = self._saved(tmp_path)
        assert store.names() == ["r"]
        envelope = json.loads(store.path_for("r").read_text())
        envelope["payload"]["comparisons"][0]["clean_accuracy"] = 11.1
        store.path_for("r").write_text(json.dumps(envelope, indent=2))
        with pytest.raises(IntegrityError, match="digest mismatch"):
            list(store.iter_results())
        with pytest.raises(IntegrityError, match="digest mismatch"):
            store.load("r")

    def test_v1_envelope_raises_version_error(self, tmp_path):
        store = self._saved(tmp_path)
        envelope = json.loads(store.path_for("r").read_text())
        del envelope["integrity"]
        envelope["schema_version"] = 1
        store.path_for("r").write_text(json.dumps(envelope, indent=2))
        fresh = ResultStore(tmp_path)
        assert fresh.names() == []
        with pytest.raises(ValueError, match="schema version 1; this build reads 2"):
            fresh.load("r")

    def test_stripped_integrity_block_fails_load(self, tmp_path):
        store = self._saved(tmp_path)
        envelope = json.loads(store.path_for("r").read_text())
        del envelope["integrity"]
        store.path_for("r").write_text(json.dumps(envelope, indent=2))
        with pytest.raises(IntegrityError, match="missing its integrity block"):
            ResultStore(tmp_path).load("r")
        with pytest.raises(IntegrityError, match="missing its integrity block"):
            verify_envelope(store.path_for("r"), envelope)

    def test_digest_is_format_independent(self, tmp_path):
        # Re-indenting the file (same content, different bytes) still
        # verifies: the digest covers canonical JSON, not file bytes.
        store = self._saved(tmp_path)
        envelope = json.loads(store.path_for("r").read_text())
        store.path_for("r").write_text(json.dumps(envelope))  # compact form
        fresh = ResultStore(tmp_path)
        assert fresh.load("r").payload == _comparison_payload()


class TestReadsFromDisk:
    """Every load, listing and stream reads the file as it stands now."""

    def _count_reads(self, monkeypatch):
        from pathlib import Path

        reads = []
        original = Path.read_text

        def counting(self, *args, **kwargs):
            reads.append(self.name)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting)
        return reads

    def test_same_size_corruption_with_mtime_kept_fails_load_after_listing(self, tmp_path):
        # Bit rot leaves size and mtime alone: a store that already listed
        # the file must still refuse it, exactly as a fresh store does.
        store = ResultStore(tmp_path)
        store.save("a", ExperimentResult(spec=ComparisonSpec(), payload=_comparison_payload()))
        assert store.names() == ["a"]
        path = store.path_for("a")
        before = path.stat()
        text = path.read_text()
        assert text.count('"clean_accuracy": 88.5') == 1
        path.write_text(text.replace('"clean_accuracy": 88.5', '"clean_accuracy": 18.5'))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        with pytest.raises(IntegrityError, match="digest mismatch"):
            store.load("a")
        with pytest.raises(IntegrityError, match="digest mismatch"):
            ResultStore(tmp_path).load("a")

    def test_deleted_file_drops_out(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("a", ExperimentResult(spec=ComparisonSpec(), payload=_comparison_payload()))
        assert store.names() == ["a"]
        store.path_for("a").unlink()
        assert store.names() == []
        with pytest.raises(OSError):
            store.load("a")

    def test_iter_results_reads_each_file_once(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        payload = _comparison_payload()
        store.save("a", ExperimentResult(spec=ComparisonSpec(seed=1), payload=payload))
        store.save("b", ExperimentResult(spec=ComparisonSpec(seed=2), payload=payload))
        reads = self._count_reads(monkeypatch)
        streamed = [(name, result.spec.seed) for name, result in store.iter_results()]
        assert streamed == [("a", 1), ("b", 2)]
        assert reads == ["a.json", "b.json"]


def _flip_value(text):
    envelope = json.loads(text)
    envelope["payload"]["comparisons"][0]["clean_accuracy"] = 11.1
    return json.dumps(envelope, indent=2)


def _strip_integrity(text):
    envelope = json.loads(text)
    del envelope["integrity"]
    return json.dumps(envelope, indent=2)


def _bad_schema(text):
    envelope = json.loads(text)
    envelope["schema_version"] = 999
    return json.dumps(envelope, indent=2)


#: case -> (edit of the saved file's text, what load raises (None: loads),
#: the problem fsck reports (None: not flagged), whether names() lists it).
AGREEMENT_CASES = {
    "flipped-value": (_flip_value, IntegrityError, "digest-mismatch", True),
    "stripped-integrity": (_strip_integrity, IntegrityError, "digest-mismatch", True),
    "bad-schema": (_bad_schema, ValueError, "unreadable", False),
    "truncated-json": (lambda text: text[:40], json.JSONDecodeError, "unreadable", False),
    "foreign-json": (lambda text: json.dumps({"rows": []}), ValueError, None, False),
    "re-indented": (lambda text: json.dumps(json.loads(text)), None, "digest-mismatch", True),
}


@pytest.mark.parametrize("case", list(AGREEMENT_CASES))
def test_load_and_names_agree_with_fsck(tmp_path, case):
    """``load``, ``names`` and ``fsck_store`` judge a file by one reader.

    ``load`` raises exactly when fsck flags the file, with two pinned
    exceptions: a re-indented envelope still verifies, so ``load``
    accepts it while fsck flags the drift from the canonical bytes; and
    a foreign JSON file is not a result at all, so fsck skips it while
    ``load`` has nothing to return.
    """
    edit, load_error, problem, listed = AGREEMENT_CASES[case]
    store = ResultStore(tmp_path)
    store.save("r", ExperimentResult(spec=ComparisonSpec(), payload=_comparison_payload()))
    path = store.path_for("r")
    path.write_text(edit(path.read_text()))

    assert (store.names() == ["r"]) is listed
    try:
        store.load("r")
        raised = None
    except ValueError as exc:
        raised = exc
    report = fsck_store(tmp_path)
    flagged = [issue.problem for issue in report.issues]

    if load_error is None:
        assert raised is None
    else:
        assert isinstance(raised, load_error)
        assert isinstance(raised, IntegrityError) is (load_error is IntegrityError)
    assert flagged == ([] if problem is None else [problem])
    if case == "re-indented":
        assert "canonical serialisation" in report.issues[0].detail
    elif case != "foreign-json":
        assert (raised is not None) is bool(flagged)


class TestRoundTripsSynthetic:
    """Codec round-trips on hand-built payloads (no training needed)."""

    def test_comparison_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = ComparisonSpec(model_keys=("resnet20",), repetitions=1)
        payload = _comparison_payload()
        store.save("cmp", ExperimentResult(spec=spec, payload=payload))
        loaded = store.load("cmp")
        assert loaded.spec == spec
        assert loaded.payload == payload  # full AttackResult equality, events included

    def test_profile_density_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = ProfileDensitySpec(densities=(0.1, 0.2))
        payload = ProfileDensityOutcome(
            density_results=((0.1, _attack_result(2)), (0.2, _attack_result(1))),
            unconstrained=_attack_result(4, "unconstrained"),
        )
        store.save("ablation", ExperimentResult(spec=spec, payload=payload))
        loaded = store.load("ablation")
        assert loaded.spec == spec
        assert loaded.payload == payload
        assert loaded.payload.as_table()["unconstrained"]["num_flips"] == 4


class TestRoundTripsLive:
    """End-to-end: run small experiments, persist, reload, compare."""

    def test_defense_matrix_round_trip(self, tmp_path):
        spec = DefenseMatrixSpec(geometry=SMALL_GEOMETRY)
        store = ResultStore(tmp_path)
        runner = ExperimentRunner(store=store)
        result = runner.run(spec, save_as="defense")
        loaded = store.load("defense")
        assert loaded.spec == spec
        assert loaded.payload == result.payload  # dataclass equality per cell

    def test_flip_sweep_round_trip(self, tmp_path):
        spec = FlipSweepSpec(
            geometry=SMALL_GEOMETRY,
            hammer_counts=(50_000, 100_000),
            open_cycles=(5_000_000,),
            max_rows_per_bank=4,
        )
        store = ResultStore(tmp_path)
        result = ExperimentRunner(store=store).run(spec, save_as="sweep")
        loaded = store.load("sweep")
        assert loaded.spec == spec
        for mechanism in ("rowhammer", "rowpress"):
            live, back = getattr(result.payload, mechanism), getattr(loaded.payload, mechanism)
            assert np.array_equal(live.budgets, back.budgets)
            assert np.array_equal(live.flips, back.flips)
            assert live.rows_tested == back.rows_tested
        assert loaded.payload.equal_time() == result.payload.equal_time()

    def test_chip_profile_round_trip(self, tmp_path):
        spec = ChipProfileSpec(
            geometry=SMALL_GEOMETRY, hammer_count=600_000, open_cycles=60_000_000, row_stride=3
        )
        store = ResultStore(tmp_path)
        result = ExperimentRunner(store=store).run(spec, save_as="profile")
        loaded = store.load("profile")
        assert loaded.spec == spec
        for mechanism in ("rowhammer", "rowpress"):
            live = getattr(result.payload.pair, mechanism)
            back = getattr(loaded.payload.pair, mechanism)
            assert np.array_equal(live.flat_indices, back.flat_indices)
            assert np.array_equal(live.directions, back.directions)
            assert live.capacity_bits == back.capacity_bits
        assert loaded.payload.ideal_rowpress_cells == result.payload.ideal_rowpress_cells


class TestReportAll:
    """``repro report --all`` over a large flat store renders every result."""

    NUM_FILES = 1000

    def test_thousand_file_report_renders_every_result(self, tmp_path, capsys):
        store = ResultStore(tmp_path)
        payload = _comparison_payload()
        for seed in range(self.NUM_FILES):
            store.save(
                f"exp{seed:04d}",
                ExperimentResult(spec=ComparisonSpec(seed=seed), payload=payload),
            )
        assert main(["report", "--all", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("## exp") == self.NUM_FILES
