"""The envelope encoder's strict-JSON fast path and its non-finite fallback."""

import json
import math

import pytest

from repro.experiments import ExperimentResult, RefsyncSweepSpec, ResultStore
from repro.experiments import store as store_module
from repro.experiments.specs import RefsyncOutcome
from repro.experiments.store import read_envelope


def _outcome(fraction: float) -> ExperimentResult:
    spec = RefsyncSweepSpec(act_rates=(0, 32), phases=(0,))
    outcome = RefsyncOutcome(
        act_rates=spec.act_rates,
        phases=spec.phases,
        flips=((0,), (3,)),
        nrr_rows=((0,), (4,)),
        sampled_fractions=((fraction,), (0.25,)),
    )
    return ExperimentResult(spec=spec, payload=outcome)


def _walk_every_payload_envelope(result: ExperimentResult) -> dict:
    """The envelope as an encoder that always walks the payload builds it."""
    encode, _ = store_module._CODECS[result.kind]
    content = {
        "kind": result.kind,
        "spec": result.spec.to_dict(),
        "payload": store_module._jsonify(encode(result.payload)),
    }
    content = json.loads(json.dumps(content, default=float, allow_nan=False))
    return {
        "schema_version": store_module.SCHEMA_VERSION,
        **content,
        "integrity": {"algo": "sha256", "digest": store_module._content_digest(content)},
    }


@pytest.fixture
def jsonify_calls(monkeypatch):
    calls = []
    original = store_module._jsonify

    def counting(value):
        calls.append(value)
        return original(value)

    monkeypatch.setattr(store_module, "_jsonify", counting)
    return calls


@pytest.mark.parametrize("fraction", [float("nan"), 0.5])
def test_stored_bytes_equal_the_walking_encoder(tmp_path, fraction):
    result = _outcome(fraction)
    path = ResultStore(tmp_path).save("refsync", result)
    expected = store_module._serialise(_walk_every_payload_envelope(result))
    assert path.read_bytes() == expected.encode("utf-8")


def test_non_finite_payload_takes_the_fallback(tmp_path, jsonify_calls):
    store = ResultStore(tmp_path)
    path = store.save("refsync", _outcome(float("nan")))
    assert jsonify_calls and jsonify_calls[0] is not None
    read = read_envelope(path)
    assert read.verdict == "ok"
    assert read.envelope["payload"]["sampled_fractions"][0][0] is None
    assert math.isnan(store.load("refsync").payload.sampled_fractions[0][0])


def test_finite_payload_takes_the_fast_path(tmp_path, jsonify_calls):
    store = ResultStore(tmp_path)
    path = store.save("refsync", _outcome(0.5))
    assert jsonify_calls == []
    assert read_envelope(path).verdict == "ok"
    assert store.load("refsync").payload.sampled_fractions[0][0] == 0.5
