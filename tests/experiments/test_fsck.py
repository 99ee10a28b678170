"""repro fsck: checksum verification and quarantine."""

import json

from repro.core.comparison import MechanismOutcome, ModelComparisonResult
from repro.core.results import AttackEvent, AttackResult
from repro.experiments import (
    ComparisonSpec,
    ExperimentResult,
    JobQueue,
    ResultStore,
    fsck_queue,
    fsck_store,
)
from repro.experiments.cli import main
from repro.experiments.queue import JOURNAL_FILE


def _attack_result(flips=1, mechanism="rowpress"):
    events = [
        AttackEvent(
            iteration=0, tensor_name="layer.weight", weight_index=3, bit_position=7,
            int_before=5, int_after=-123, loss_after=1.5, accuracy_after=50.0,
        )
    ]
    return AttackResult(
        model_name="ResNet-20", mechanism=mechanism, accuracy_before=88.5,
        accuracy_after=50.0, target_accuracy=12.0, num_flips=flips, converged=False,
        events=events, accuracy_curve=[88.5, 50.0], loss_curve=[0.5, 1.5],
        candidate_bits=64,
    )


def _result(seed=0):
    rowhammer = MechanismOutcome("rowhammer")
    rowhammer.results = [_attack_result(mechanism="rowhammer")]
    rowpress = MechanismOutcome("rowpress")
    rowpress.results = [_attack_result()]
    payload = [
        ModelComparisonResult(
            model_key="resnet20", display_name="ResNet-20", dataset_name="CIFAR-10",
            num_parameters=271_098, clean_accuracy=88.5, random_guess_accuracy=10.0,
            rowhammer=rowhammer, rowpress=rowpress,
        )
    ]
    return ExperimentResult(spec=ComparisonSpec(seed=seed), payload=payload)


def _flip_byte(path, offset=100):
    raw = bytearray(path.read_bytes())
    raw[offset % len(raw)] ^= 1
    path.write_bytes(bytes(raw))


class TestStoreFsck:
    def test_clean_store_reports_zero_issues(self, tmp_path):
        store = ResultStore(tmp_path)
        for seed in range(3):
            store.save(f"r{seed}", _result(seed=seed))
        # A foreign JSON file must not be flagged.
        (tmp_path / "notes.json").write_text(json.dumps({"rows": []}))
        report = fsck_store(tmp_path)
        assert report.clean
        assert report.scanned == 4 and report.verified == 3

    def test_v1_envelope_is_unreadable_not_verified(self, tmp_path):
        # Schema 2 is the only version read: a checksum-less v1 envelope
        # is an untrustworthy file, not a legacy one.
        store = ResultStore(tmp_path)
        for seed in range(3):
            store.save(f"r{seed}", _result(seed=seed))
        envelope = json.loads(store.path_for("r0").read_text())
        del envelope["integrity"]
        envelope["schema_version"] = 1
        store.path_for("r0").write_text(json.dumps(envelope, indent=2))
        report = fsck_store(tmp_path)
        assert [issue.problem for issue in report.issues] == ["unreadable"]
        assert report.issues[0].detail == "bad schema version 1"
        assert report.verified == 2 and report.legacy == 0

    def test_bit_flip_is_detected_and_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("good", _result(seed=1))
        store.save("bad", _result(seed=2))
        _flip_byte(store.path_for("bad"))
        report = fsck_store(tmp_path, quarantine=True)
        assert [issue.problem for issue in report.issues] == ["digest-mismatch"]
        assert report.issues[0].quarantined
        assert (tmp_path / "quarantine" / "bad.json").is_file()
        assert not store.path_for("bad").exists()
        # The repaired tree is clean and the good result still loads.
        after = fsck_store(tmp_path)
        assert after.clean and after.verified == 1
        fresh = ResultStore(tmp_path)
        assert fresh.names() == ["good"]
        assert fresh.load("good").spec.seed == 1

    def test_whitespace_flip_is_detected(self, tmp_path):
        # A flip in formatting passes the content digest; the byte-exact
        # canonical-serialisation check still catches it.
        store = ResultStore(tmp_path)
        store.save("r", _result())
        path = store.path_for("r")
        raw = path.read_text()
        path.write_text(raw.replace('\n  "', '\n   "', 1))
        report = fsck_store(tmp_path)
        assert [issue.problem for issue in report.issues] == ["digest-mismatch"]
        assert "canonical serialisation" in report.issues[0].detail

    def test_truncated_file_is_unreadable(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("r", _result())
        path = store.path_for("r")
        path.write_bytes(path.read_bytes()[:40])  # torn write
        report = fsck_store(tmp_path, quarantine=True)
        assert [issue.problem for issue in report.issues] == ["unreadable"]
        assert fsck_store(tmp_path).clean

    def test_undecodable_and_nan_files_are_flagged_not_fatal(self, tmp_path):
        # Neither file can come from the writer; fsck reports both and
        # keeps scanning instead of raising out of the scan.
        store = ResultStore(tmp_path)
        store.save("good", _result())
        envelope = json.loads(store.path_for("good").read_text())
        envelope["payload"]["comparisons"][0]["clean_accuracy"] = float("nan")
        (tmp_path / "nan.json").write_text(json.dumps(envelope, indent=2))
        (tmp_path / "binary.json").write_bytes(b"\xff\xfe\x00")
        report = fsck_store(tmp_path, quarantine=True)
        assert [(issue.path.name, issue.problem) for issue in report.issues] == [
            ("binary.json", "unreadable"),
            ("nan.json", "digest-mismatch"),
        ]
        assert report.verified == 1 and fsck_store(tmp_path).clean

    def test_missing_directory_is_empty_report(self, tmp_path):
        report = fsck_store(tmp_path / "nope")
        assert report.clean and report.scanned == 0


class TestQueueFsck:
    def _journal(self, tmp_path):
        """A three-line journal: two submissions and one claim."""
        queue = JobQueue(tmp_path)
        first, _ = queue.submit(ComparisonSpec(seed=1).to_dict())
        second, _ = queue.submit(ComparisonSpec(seed=2).to_dict())
        queue.claim()
        return first, second, tmp_path / JOURNAL_FILE

    def test_clean_queue_reports_zero_issues(self, tmp_path):
        self._journal(tmp_path)
        report = fsck_queue(tmp_path)
        assert report.clean and report.scanned == 3 and report.verified == 3

    def test_tampered_job_is_detected_and_quarantined(self, tmp_path):
        first, second, path = self._journal(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        bad = lines[1].replace(b'"state":"pending"', b'"state":"done"')
        path.write_bytes(lines[0] + bad + lines[2])
        report = fsck_queue(tmp_path)
        assert [(issue.problem, issue.line) for issue in report.issues] == [
            ("digest-mismatch", 2)
        ]
        assert report.scanned == 3 and report.verified == 2
        report = fsck_queue(tmp_path, quarantine=True)
        (issue,) = report.issues
        assert issue.quarantined and issue.path == tmp_path / "quarantine" / JOURNAL_FILE
        assert issue.path.read_bytes() == bad  # exactly the bad line, kept
        assert path.read_bytes() == lines[0] + lines[2]
        assert fsck_queue(tmp_path).clean
        reloaded = JobQueue(tmp_path)  # the tampered record never reloads
        assert reloaded.corrupt_lines == []
        assert [job.job_id for job in reloaded.jobs()] == [first.job_id]

    def test_torn_last_line_is_its_own_problem(self, tmp_path):
        _, _, path = self._journal(tmp_path)
        with open(path, "ab") as handle:
            handle.write(b'{"attempts":1,"dead')
        (issue,) = fsck_queue(tmp_path).issues
        assert (issue.problem, issue.line) == ("torn", 4)

    def test_legacy_job_file_is_counted_not_flagged(self, tmp_path):
        # Per-job files from an older daemon are not read by this build:
        # fsck counts them so an operator sees work left behind.
        JobQueue(tmp_path).submit(ComparisonSpec(seed=1).to_dict())
        (tmp_path / "job-0123456789abcdef.json").write_text(json.dumps({"job_id": "x"}))
        report = fsck_queue(tmp_path)
        assert report.clean and report.legacy == 1 and report.verified == 1
        assert len(JobQueue(tmp_path)) == 1


class TestFsckCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        queue_dir = tmp_path / "queue"
        ResultStore(store_dir).save("r", _result())
        JobQueue(queue_dir).submit(ComparisonSpec().to_dict())
        rc = main(["fsck", "--store", str(store_dir), "--queue", str(queue_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 scanned, 1 verified" in out

    def test_corruption_without_quarantine_exits_one(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        store = ResultStore(store_dir)
        store.save("r", _result())
        _flip_byte(store.path_for("r"))
        rc = main(["fsck", "--store", str(store_dir), "--queue", str(tmp_path / "q")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "found digest-mismatch" in captured.out
        assert "corrupt file(s) remain" in captured.err

    def test_queue_issue_names_its_line(self, tmp_path, capsys):
        queue_dir = tmp_path / "queue"
        JobQueue(queue_dir).submit(ComparisonSpec().to_dict())
        with open(queue_dir / JOURNAL_FILE, "ab") as handle:
            handle.write(b"{torn")
        rc = main(["fsck", "--store", str(tmp_path / "s"), "--queue", str(queue_dir)])
        assert rc == 1
        assert f"found torn: {queue_dir / JOURNAL_FILE} (line 2)" in capsys.readouterr().out

    def test_quarantine_repairs_and_exits_zero(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        store = ResultStore(store_dir)
        store.save("r", _result())
        _flip_byte(store.path_for("r"))
        rc = main([
            "fsck", "--store", str(store_dir), "--queue", str(tmp_path / "q"),
            "--quarantine",
        ])
        assert rc == 0
        assert "quarantined digest-mismatch" in capsys.readouterr().out
        assert (store_dir / "quarantine" / "r.json").is_file()
