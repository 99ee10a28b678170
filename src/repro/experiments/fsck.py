"""Offline integrity check and repair for the experiment state on disk.

``repro fsck`` is the operator's answer to "can I trust this store?": it
scans a result store directory, verifies every envelope against its
embedded sha256 digest, and optionally **quarantines** corrupt files
into a ``quarantine/`` subdirectory.  The same machinery checks a job-queue
journal (``queue.jsonl``, one checksummed record per line).

Design rules:

* **Zero false positives.**  Only a file whose embedded checksum fails
  to verify (or that no longer parses as an envelope) is ever reported
  or quarantined; JSON files that are not envelopes at all are skipped.
* **Nothing is destroyed.**  Quarantine *moves* files (same filesystem,
  ``os.replace``) into ``quarantine/``, and copies bad journal lines
  there before rewriting the journal without them — an operator can
  inspect or restore them; nothing is unlinked.
* **Deterministic.**  The scan order is sorted, so two fscks of the same
  tree produce identical reports.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.experiments.queue import JOURNAL_FILE, read_journal
from repro.experiments.store import read_envelope
from repro.utils.resilience import atomic_write

PathLike = Union[str, Path]

#: Subdirectory corrupt files are moved into (store root / queue root).
QUARANTINE_DIR = "quarantine"


@dataclass
class FsckIssue:
    """One problem fsck found: a file and why it cannot be trusted.

    ``problem`` is ``digest-mismatch`` (content no longer matches the
    embedded sha256), ``unreadable`` (the file or journal line does not
    parse as an envelope or job record at all) or ``torn`` (a journal's
    unterminated last line: an append cut short).  ``line`` is the
    1-based journal line of a queue issue.  ``quarantined`` records
    whether the repair pass moved the file or line.
    """

    path: Path
    problem: str
    detail: str = ""
    quarantined: bool = False
    line: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable description of the issue."""
        return {
            "path": str(self.path),
            "problem": self.problem,
            "detail": self.detail,
            "quarantined": self.quarantined,
            "line": self.line,
        }


@dataclass
class FsckReport:
    """What an fsck pass scanned, verified, and flagged.

    ``scanned`` counts every candidate file (store) or journal line
    (queue) examined, ``verified`` the ones whose checksum held,
    ``legacy`` the ``job-*.json`` files an older daemon left in a queue
    directory (this build does not read them — not corruption).
    ``issues`` lists everything untrustworthy.
    """

    scanned: int = 0
    verified: int = 0
    legacy: int = 0
    issues: List[FsckIssue] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """Whether the tree is fully trustworthy (no issues at all)."""
        return not self.issues

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable description of the report."""
        return {
            "scanned": self.scanned,
            "verified": self.verified,
            "legacy": self.legacy,
            "issues": [issue.to_dict() for issue in self.issues],
            "clean": self.clean,
        }


def _quarantine_target(path: Path, root: Path) -> Path:
    """A fresh path for ``path`` in ``root/quarantine/`` (never overwriting)."""
    target_dir = root / QUARANTINE_DIR
    target_dir.mkdir(parents=True, exist_ok=True)
    target = target_dir / path.name
    counter = 1
    while target.exists():
        target = target_dir / f"{path.stem}.{counter}{path.suffix}"
        counter += 1
    return target


def fsck_store(directory: PathLike, quarantine: bool = False) -> FsckReport:
    """Scan a result store; verify and optionally quarantine.

    Walks every ``*.json`` file in the store directory, judges it with
    the store's own reader (:func:`~repro.experiments.store.read_envelope`)
    and reports the untrustworthy ones.  On top of what ``load`` checks,
    fsck flags a verified envelope whose file bytes differ from the
    canonical serialisation: every envelope is machine-written in exactly
    one format, so drift from it is damage, not style.  Files that are not
    envelopes at all are skipped, so a clean tree has zero findings.  With
    ``quarantine=True`` the corrupt files are moved to
    ``<directory>/quarantine/`` and the report's issues say so (a second
    fsck is clean).
    """
    root = Path(directory)
    report = FsckReport()
    if not root.is_dir():
        return report
    for path in sorted(root.glob("*.json")):
        report.scanned += 1
        read = read_envelope(path)
        problem, detail = read.verdict, read.detail
        if problem == "ok" and not read.canonical:
            problem, detail = "digest-mismatch", "file bytes differ from the canonical serialisation"
        if problem == "ok":
            report.verified += 1
            continue
        if problem == "foreign":
            continue  # not ours: never a false positive
        issue = FsckIssue(path, problem, detail)
        if quarantine:
            issue.path = _quarantine_target(path, root)
            os.replace(path, issue.path)
            issue.quarantined = True
        report.issues.append(issue)
    return report


def fsck_queue(directory: PathLike, quarantine: bool = False) -> FsckReport:
    """Scan a job-queue directory's journal (``queue.jsonl``) line by line.

    Every line must parse, verify against its embedded ``sha256`` and
    equal the writer's canonical bytes; each bad line is reported with
    its line number (``torn`` for an unterminated last line).  With
    ``quarantine=True`` the bad lines are copied to
    ``<directory>/quarantine/`` and the journal is rewritten atomically
    without them, so the queue is clean afterwards.  ``job-*.json`` files
    from an older daemon are counted as ``legacy``, not flagged.
    """
    root = Path(directory)
    report = FsckReport()
    if not root.is_dir():
        return report
    report.legacy = sum(1 for _ in root.glob("job-*.json"))
    path = root / JOURNAL_FILE
    lines = read_journal(path)
    bad = [line for line in lines if line.problem]
    report.scanned = len(lines)
    report.verified = len(lines) - len(bad)
    for line in bad:
        report.issues.append(FsckIssue(path, line.problem, line.detail, line=line.number))
    if quarantine and bad:
        target = _quarantine_target(path, root)
        target.write_bytes(b"".join(line.raw + b"\n" for line in bad))
        atomic_write(path, b"".join(line.raw + b"\n" for line in lines if not line.problem))
        for issue in report.issues:
            issue.path, issue.quarantined = target, True
    return report
