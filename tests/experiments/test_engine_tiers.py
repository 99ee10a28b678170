"""The engine tier is an execution setting, not part of a spec's identity.

Engine tiers are contractually byte-identical (docs/ENGINES.md), so the
tier is chosen by ``REPRO_DEFAULT_ENGINE`` alone and never enters a spec.
One small spec of each kind that once carried an ``engine`` field runs
under every tier here: the stored envelopes, and with them the spec
hashes, must be byte-equal.
"""

import json

import pytest

from repro.core.bfa import BitSearchConfig
from repro.experiments import (
    ComparisonSpec,
    ExperimentRunner,
    ProfileDensitySpec,
    RefsyncSweepSpec,
    ResultStore,
    TrrSamplingSpec,
    spec_hash,
)

TIERS = ("vectorized", "compiled", "reference")

SMALL_SEARCH = BitSearchConfig(max_flips=2, top_k_layers=2, eval_batch_size=32)

SPECS = [
    ComparisonSpec(
        repetitions=1,
        attack_batch_size=16,
        eval_samples=32,
        search=SMALL_SEARCH,
        training_epochs=1,
        seed=5,
        profile_seed=5,
    ),
    ProfileDensitySpec(
        densities=(0.02,),
        search=SMALL_SEARCH,
        attack_batch_size=16,
        eval_samples=32,
        training_epochs=1,
    ),
    # The timeline defaults run in milliseconds and latch flips.
    TrrSamplingSpec(),
    RefsyncSweepSpec(),
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.kind)
def test_stored_bytes_and_spec_hash_equal_across_tiers(tmp_path, monkeypatch, spec):
    stored = {}
    for tier in TIERS:
        monkeypatch.setenv("REPRO_DEFAULT_ENGINE", tier)
        store = ResultStore(tmp_path / tier)
        ExperimentRunner(store=store).run(spec, save_as="exp")
        stored[tier] = store.path_for("exp").read_bytes()
    assert stored["compiled"] == stored["vectorized"]
    assert stored["reference"] == stored["vectorized"]
    envelope = json.loads(stored["vectorized"])
    assert spec_hash(envelope["spec"]) == spec_hash(spec)
