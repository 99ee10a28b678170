"""Persistent, schema-versioned experiment results.

Every result the runner produces can be written to — and losslessly read
back from — the ``benchmarks/results/*.json`` format the repository's
benchmarks have always used.  Each file is an *envelope*::

    {
      "schema_version": 2,
      "kind": "<experiment kind>",
      "spec": { ...spec_from_dict payload... },
      "payload": { ...kind-specific encoding... },
      "integrity": {"algo": "sha256", "digest": "<hex>"}
    }

so a stored result carries the full declarative description of the
experiment that produced it.  :meth:`ResultStore.load` rebuilds the same
in-memory result objects (:class:`ModelComparisonResult`,
:class:`DefenseEvaluationResult`, :class:`FlipCurve`, ...) the live run
returned.

The ``integrity`` block is a sha256 digest of the envelope's canonical
content, verified on every load, so silent
bit-rot in a stored result — or a stripped digest — raises
:class:`IntegrityError` instead of feeding corrupt numbers into reports.
Schema version 2 is the only version this build reads.

:func:`read_envelope` is the one reader of the format: the store's
``load``/``names``/``iter_results``, the daemon's ``result`` op and
``repro fsck`` all judge a file by its verdict, straight from disk.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

from repro.core.comparison import MechanismOutcome, ModelComparisonResult
from repro.core.results import AttackResult
from repro.defenses.evaluation import DefenseEvaluationResult
from repro.faults.profiles import BitFlipProfile, ProfilePair
from repro.faults.sweep import FlipCurve
from repro.experiments.runner import ExperimentResult
from repro.dram.timeline import TimelineResult
from repro.experiments.specs import (
    ChipProfileOutcome,
    FlipSweepOutcome,
    ProfileDensityOutcome,
    RefsyncOutcome,
    TrrSamplingOutcome,
    spec_from_dict,
)
from repro.utils.resilience import atomic_write

#: The envelope version this build writes and reads.
SCHEMA_VERSION = 2

PathLike = Union[str, Path]


class IntegrityError(ValueError):
    """A stored envelope's content no longer matches its sha256 digest.

    Subclasses ``ValueError`` so callers with historical "unreadable
    result" handling treat corruption like any other undecodable file;
    ``repro fsck`` distinguishes it to quarantine precisely.
    """


def _content_digest(content: Dict[str, Any]) -> str:
    """sha256 over the canonical JSON of an envelope's content fields.

    Canonical means sorted keys and compact separators, so the digest is
    independent of the pretty-printing the envelope file itself uses.
    ``content`` must already be JSON-native (round-tripped), so the
    digest computed at save time equals the one recomputed from the
    parsed file at load time.
    """
    canonical = json.dumps(content, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _envelope_content(envelope: Dict[str, Any]) -> Dict[str, Any]:
    """The checksummed subset of an envelope (kind, spec, payload)."""
    return {key: envelope[key] for key in ("kind", "spec", "payload") if key in envelope}


def _digest_problem(envelope: Dict[str, Any]) -> str:
    """Why ``envelope`` fails its checksum, or ``""`` when it verifies.

    An envelope without its ``integrity`` block fails too: every envelope
    this build writes carries one, so a missing digest is damage.
    """
    integrity = envelope.get("integrity")
    if not isinstance(integrity, dict):
        return "envelope is missing its integrity block"
    try:
        computed = _content_digest(_envelope_content(envelope))
    except ValueError as exc:  # a NaN token: nothing this build writes
        return f"content has no canonical form ({exc})"
    stored = integrity.get("digest")
    if computed != stored:
        return f"content digest mismatch (stored {stored!r}, computed {computed!r})"
    return ""


def verify_envelope(path: Path, envelope: Dict[str, Any]) -> None:
    """Raise :class:`IntegrityError` when an envelope fails its checksum."""
    problem = _digest_problem(envelope)
    if problem:
        raise IntegrityError(f"{path}: {problem}")


def _serialise(envelope: Dict[str, Any]) -> str:
    """The exact text :meth:`ResultStore.save` writes for ``envelope``."""
    return json.dumps(envelope, indent=2, default=float, allow_nan=False)


class EnvelopeRead(NamedTuple):
    """One result file as :func:`read_envelope` judged it.

    ``verdict`` is ``ok``, ``foreign`` (not a result envelope at all),
    ``unreadable`` (the file does not read or parse, or carries another
    schema version) or ``digest-mismatch`` (content no longer matches the
    embedded sha256, or the digest is gone).  ``detail`` says why a file
    is not ``ok`` and ``error`` is the exception :meth:`ResultStore.load`
    raises for it.  ``text`` is the file as read.
    """

    verdict: str
    envelope: Any = None
    text: str = ""
    detail: str = ""
    error: Optional[Exception] = None

    @property
    def canonical(self) -> bool:
        """Whether the file holds exactly the bytes ``save`` writes for it.

        Every envelope is machine-written in one format, so drift from it
        (whitespace, a mangled key name) is damage the content digest
        cannot see; ``repro fsck`` flags it while ``load`` tolerates it.
        """
        return self.text == _serialise(self.envelope)


def read_envelope(path: Path) -> EnvelopeRead:
    """Read and classify one result file: parse, schema check, digest check.

    Files that are not envelopes at all (not a JSON object, or one with
    neither a schema marker nor an integrity block) are ``foreign``.  An
    envelope-like file with another schema version is ``unreadable``: a
    flipped bit in the marker, or an envelope this build no longer reads.
    """
    try:
        text = path.read_text()
        envelope = json.loads(text)
    except (OSError, ValueError) as exc:
        return EnvelopeRead("unreadable", detail=f"{type(exc).__name__}: {exc}", error=exc)
    version = envelope.get("schema_version") if isinstance(envelope, dict) else None
    if version != SCHEMA_VERSION:
        error = ValueError(
            f"{path} has schema version {version!r}; this build reads {SCHEMA_VERSION}"
        )
        if isinstance(envelope, dict) and (
            version is not None or isinstance(envelope.get("integrity"), dict)
        ):
            detail = f"bad schema version {version!r}"
            return EnvelopeRead("unreadable", envelope, text, detail, error)
        return EnvelopeRead("foreign", envelope, text, "not a result envelope", error)
    problem = _digest_problem(envelope)
    if problem:
        error = IntegrityError(f"{path}: {problem}")
        return EnvelopeRead("digest-mismatch", envelope, text, problem, error)
    return EnvelopeRead("ok", envelope, text)


def check_result_name(name: str) -> str:
    """Return ``name`` if it is a single path component, else raise.

    Result names become file names inside the store directory, so a name
    that is empty, contains a separator or NUL, or is ``.``/``..`` could
    read or write outside the store; it raises ``ValueError``.
    """
    if (
        not isinstance(name, str)
        or name in ("", ".", "..")
        or "/" in name
        or os.sep in name
        or "\0" in name
    ):
        raise ValueError(f"invalid result name {name!r}: must be one path component")
    return name


def _jsonify(value: Any) -> Any:
    """Recursively replace non-finite floats with ``None``.

    Derived quantities like ``mitigation_fraction`` can legitimately be
    ``nan``; bare ``NaN`` tokens are not valid strict JSON and would make
    stored envelopes unreadable for non-Python consumers.  The decoded
    result objects recompute derived values from their raw fields, so the
    substitution is lossless for round-trips.
    """
    if isinstance(value, dict):
        return {key: _jsonify(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(entry) for entry in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


# ----------------------------------------------------------------------
# Per-kind payload codecs
# ----------------------------------------------------------------------
def _encode_outcome(outcome: MechanismOutcome) -> Dict[str, Any]:
    return {
        "mechanism": outcome.mechanism,
        "results": [result.to_dict(include_events=True) for result in outcome.results],
    }


def _decode_outcome(payload: Dict[str, Any]) -> MechanismOutcome:
    outcome = MechanismOutcome(payload["mechanism"])
    outcome.results = [AttackResult.from_dict(entry) for entry in payload["results"]]
    return outcome


def _encode_comparison(comparisons: List[ModelComparisonResult]) -> Dict[str, Any]:
    return {
        "comparisons": [
            {
                "model_key": result.model_key,
                "display_name": result.display_name,
                "dataset_name": result.dataset_name,
                "num_parameters": result.num_parameters,
                "clean_accuracy": result.clean_accuracy,
                "random_guess_accuracy": result.random_guess_accuracy,
                "rowhammer": _encode_outcome(result.rowhammer),
                "rowpress": _encode_outcome(result.rowpress),
            }
            for result in comparisons
        ]
    }


def _decode_comparison(payload: Dict[str, Any]) -> List[ModelComparisonResult]:
    return [
        ModelComparisonResult(
            model_key=entry["model_key"],
            display_name=entry["display_name"],
            dataset_name=entry["dataset_name"],
            num_parameters=entry["num_parameters"],
            clean_accuracy=entry["clean_accuracy"],
            random_guess_accuracy=entry["random_guess_accuracy"],
            rowhammer=_decode_outcome(entry["rowhammer"]),
            rowpress=_decode_outcome(entry["rowpress"]),
        )
        for entry in payload["comparisons"]
    ]


def _encode_defense_matrix(matrix: Dict[str, Dict[str, DefenseEvaluationResult]]) -> Dict[str, Any]:
    return {
        "matrix": {
            name: {mechanism: result.as_dict() for mechanism, result in row.items()}
            for name, row in matrix.items()
        }
    }


def _decode_defense_matrix(payload: Dict[str, Any]) -> Dict[str, Dict[str, DefenseEvaluationResult]]:
    return {
        name: {
            mechanism: DefenseEvaluationResult.from_dict(entry)
            for mechanism, entry in row.items()
        }
        for name, row in payload["matrix"].items()
    }


def _encode_flip_sweep(outcome: FlipSweepOutcome) -> Dict[str, Any]:
    return {
        "rowhammer": outcome.rowhammer.to_dict(),
        "rowpress": outcome.rowpress.to_dict(),
        "equal_time": outcome.equal_time(),
    }


def _decode_flip_sweep(payload: Dict[str, Any]) -> FlipSweepOutcome:
    return FlipSweepOutcome(
        rowhammer=FlipCurve.from_dict(payload["rowhammer"]),
        rowpress=FlipCurve.from_dict(payload["rowpress"]),
    )


def _encode_chip_profile(outcome: ChipProfileOutcome) -> Dict[str, Any]:
    return {
        "rowhammer": outcome.pair.rowhammer.to_dict(),
        "rowpress": outcome.pair.rowpress.to_dict(),
        "statistics": outcome.pair.statistics(),
        "ideal_rowhammer_cells": outcome.ideal_rowhammer_cells,
        "ideal_rowpress_cells": outcome.ideal_rowpress_cells,
    }


def _decode_chip_profile(payload: Dict[str, Any]) -> ChipProfileOutcome:
    return ChipProfileOutcome(
        pair=ProfilePair(
            rowhammer=BitFlipProfile.from_dict(payload["rowhammer"]),
            rowpress=BitFlipProfile.from_dict(payload["rowpress"]),
        ),
        ideal_rowhammer_cells=int(payload["ideal_rowhammer_cells"]),
        ideal_rowpress_cells=int(payload["ideal_rowpress_cells"]),
    )


def _encode_profile_density(outcome: ProfileDensityOutcome) -> Dict[str, Any]:
    return {
        "density_results": [
            [density, result.to_dict(include_events=True)]
            for density, result in outcome.density_results
        ],
        "unconstrained": (
            outcome.unconstrained.to_dict(include_events=True)
            if outcome.unconstrained is not None
            else None
        ),
    }


def _decode_profile_density(payload: Dict[str, Any]) -> ProfileDensityOutcome:
    return ProfileDensityOutcome(
        density_results=tuple(
            (float(density), AttackResult.from_dict(entry))
            for density, entry in payload["density_results"]
        ),
        unconstrained=(
            AttackResult.from_dict(payload["unconstrained"])
            if payload.get("unconstrained") is not None
            else None
        ),
    )


def _encode_trr_sampling(outcome: TrrSamplingOutcome) -> Dict[str, Any]:
    return {
        "entries": [
            [capacity, result.to_dict()] for capacity, result in outcome.entries
        ]
    }


def _decode_trr_sampling(payload: Dict[str, Any]) -> TrrSamplingOutcome:
    return TrrSamplingOutcome(
        entries=tuple(
            (int(capacity), TimelineResult.from_dict(entry))
            for capacity, entry in payload["entries"]
        )
    )


def _encode_refsync(outcome: RefsyncOutcome) -> Dict[str, Any]:
    return {
        "act_rates": list(outcome.act_rates),
        "phases": list(outcome.phases),
        "flips": [list(row) for row in outcome.flips],
        "nrr_rows": [list(row) for row in outcome.nrr_rows],
        # nan entries (zero-activation cells) become null via _jsonify.
        "sampled_fractions": [list(row) for row in outcome.sampled_fractions],
    }


def _decode_refsync(payload: Dict[str, Any]) -> RefsyncOutcome:
    return RefsyncOutcome(
        act_rates=tuple(int(rate) for rate in payload["act_rates"]),
        phases=tuple(int(phase) for phase in payload["phases"]),
        flips=tuple(tuple(int(v) for v in row) for row in payload["flips"]),
        nrr_rows=tuple(tuple(int(v) for v in row) for row in payload["nrr_rows"]),
        sampled_fractions=tuple(
            # null round-trips back to nan, the in-memory undefined marker.
            tuple(float("nan") if v is None else float(v) for v in row)
            for row in payload["sampled_fractions"]
        ),
    )


_CODECS: Dict[str, tuple] = {
    "comparison": (_encode_comparison, _decode_comparison),
    "defense_matrix": (_encode_defense_matrix, _decode_defense_matrix),
    "flip_sweep": (_encode_flip_sweep, _decode_flip_sweep),
    "chip_profile": (_encode_chip_profile, _decode_chip_profile),
    "profile_density": (_encode_profile_density, _decode_profile_density),
    "trr_sampling": (_encode_trr_sampling, _decode_trr_sampling),
    "refsync_sweep": (_encode_refsync, _decode_refsync),
}


class ResultStore:
    """Directory of schema-versioned experiment-result JSON files.

    Every :meth:`load`, :meth:`names` and :meth:`iter_results` call reads
    the files it needs straight from disk through :func:`read_envelope`,
    so each load verifies the envelope's checksum as the file stands now;
    ``repro fsck`` is the offline scan over the same reader.
    Result names must be a single path component
    (:func:`check_result_name`).
    """

    def __init__(self, directory: PathLike):
        self.directory = Path(directory)

    def path_for(self, name: str) -> Path:
        """Filesystem path a result of this name is stored at.

        Raises ``ValueError`` for a name that is not a single path
        component, so no caller can address a file outside the store.
        """
        return self.directory / f"{check_result_name(name)}.json"

    def _encode_envelope(self, result: ExperimentResult) -> Dict[str, Any]:
        """The on-disk envelope dict for ``result`` (spec + encoded payload)."""
        try:
            encode, _ = _CODECS[result.kind]
        except KeyError as exc:
            raise ValueError(f"no result codec for kind {result.kind!r}") from exc
        content = {
            "kind": result.kind,
            "spec": result.spec.to_dict(),
            "payload": encode(result.payload),
        }
        # Round-trip through JSON before digesting so the checksummed
        # values are exactly what a reader parses back (tuples become
        # lists, numpy scalars become floats) — the digest verifies
        # identically against the file content forever after.  Only a
        # payload holding a non-finite float fails the strict dump; it is
        # walked once with _jsonify and dumped again.
        try:
            text = json.dumps(content, default=float, allow_nan=False)
        except ValueError:
            content["payload"] = _jsonify(content["payload"])
            text = json.dumps(content, default=float, allow_nan=False)
        content = json.loads(text)
        return {
            "schema_version": SCHEMA_VERSION,
            **content,
            "integrity": {"algo": "sha256", "digest": _content_digest(content)},
        }

    def _decode(self, read: EnvelopeRead) -> ExperimentResult:
        """Rebuild the in-memory result from a read; raises unless it is ``ok``."""
        if read.error is not None:
            raise read.error
        envelope = read.envelope
        kind = envelope["kind"]
        try:
            _, decode = _CODECS[kind]
        except KeyError as exc:
            raise ValueError(f"no result codec for kind {kind!r}") from exc
        return ExperimentResult(
            spec=spec_from_dict(envelope["spec"]),
            payload=decode(envelope["payload"]),
        )

    def save(self, name: str, result: ExperimentResult) -> Path:
        """Persist ``result`` under ``name`` atomically; returns the path.

        The temp-file + rename write (chaos point ``store.write``)
        guarantees a reader (or a daemon restart) never observes a torn
        envelope, whatever kills the writer mid-save.
        """
        envelope = self._encode_envelope(result)
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(name)
        atomic_write(path, _serialise(envelope).encode("utf-8"), "store.write")
        return path

    def load(self, name: str) -> ExperimentResult:
        """Reconstruct the result previously saved under ``name``.

        A missing file raises ``OSError``; a file that is not a readable
        envelope of this schema version a ``ValueError``; a damaged one
        :class:`IntegrityError`.  Every call builds fresh result objects,
        so callers may mutate what they get back.
        """
        return self._decode(read_envelope(self.path_for(name)))

    def _reads(self) -> Iterator[Tuple[str, EnvelopeRead]]:
        """``(name, read)`` for every listed file, in name order, each read once."""
        for path in sorted(self.directory.glob("*.json")):
            read = read_envelope(path)
            if read.verdict in ("ok", "digest-mismatch"):
                yield path.stem, read

    def iter_results(self) -> Iterator[Tuple[str, ExperimentResult]]:
        """Yield ``(name, result)`` pairs one at a time, in name order.

        The streaming counterpart of ``{name: load(name) for name in
        names()}``: each file is read and decoded only when the consumer
        reaches it, so aggregation (the CLI ``report --all``) holds one
        envelope and one decoded result at a time.  A damaged envelope
        raises :class:`IntegrityError` when reached.
        """
        for name, read in self._reads():
            yield name, self._decode(read)

    def names(self) -> List[str]:
        """Names of every result envelope in the store (sorted).

        Damaged envelopes are listed too, so a listing shows corruption
        (their :meth:`load` raises :class:`IntegrityError`) instead of
        hiding it; files that do not parse, carry another schema version
        or are not envelopes at all are not.
        """
        return [name for name, _ in self._reads()]

    def __contains__(self, name: str) -> bool:
        try:
            return self.path_for(name).is_file()
        except ValueError:
            return False  # not a valid result name, so never stored
