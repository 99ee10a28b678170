"""The engine tier and the kernel backend are execution settings, not spec identity.

Engine tiers and kernel backends are contractually byte-identical
(docs/ENGINES.md), so the tier is chosen by ``REPRO_DEFAULT_ENGINE`` and
the kernels by ``REPRO_KERNEL_BACKEND``, and neither enters a spec.  One
small spec of each kind that once carried an ``engine`` field runs on
every (tier, kernel backend) leg here: the stored envelopes, and with
them the spec hashes, must be byte-equal.  Each leg must also reach the
kernel registry in-process, or the cc leg would quietly train and attack
on the NumPy kernels.
"""

import json
from dataclasses import dataclass

import pytest

from repro.core.bfa import BitFlipAttack, BitSearchConfig
from repro.dram.chip import DramChip
from repro.experiments import (
    ComparisonSpec,
    ExperimentRunner,
    ExperimentSpec,
    ProcessPoolBackend,
    ProfileDensitySpec,
    RefsyncSweepSpec,
    ResultStore,
    TrrSamplingSpec,
    spec_hash,
)
from repro.experiments.specs import SPEC_KINDS
from repro.nn import kernels
from repro.utils.validation import check_engine, default_engine

#: (tier, kernel backend) legs.  The reference leg pins NumPy so that its
#: victim training also stays on NumPy.  Probe the backend before any leg
#: sets ``REPRO_KERNEL_BACKEND=none``: ``none`` at the first probe keeps
#: the C library from loading at all.
LEGS = (("reference", "none"), ("compiled", "none"), ("compiled", "cc"))
BACKEND = kernels.available()

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
def test_stored_bytes_and_spec_hash_equal_across_legs(tmp_path, monkeypatch, spec):
    stored = {}
    for tier, backend in LEGS:
        monkeypatch.setenv("REPRO_DEFAULT_ENGINE", tier)
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", backend)
        if BACKEND:
            assert kernels.compiled_active() == (backend == "cc"), (tier, backend)
        store = ResultStore(tmp_path / f"{tier}-{backend}")
        ExperimentRunner(store=store).run(spec, save_as="exp")
        stored[tier, backend] = store.path_for("exp").read_bytes()
    first = stored[LEGS[0]]
    assert all(stored[leg] == first for leg in LEGS), [leg for leg in LEGS if stored[leg] != first]
    assert spec_hash(json.loads(first)["spec"]) == spec_hash(spec)


def test_retired_tier_name_is_refused(monkeypatch):
    """``vectorized`` is no tier: every selector refuses it and names both tiers."""
    both = "'reference', 'compiled'"
    with pytest.raises(ValueError, match=both):
        check_engine("vectorized")
    with pytest.raises(ValueError, match=both):
        BitFlipAttack(None, None, engine="vectorized")
    with pytest.raises(ValueError, match=both):
        DramChip(engine="vectorized")
    monkeypatch.setenv("REPRO_DEFAULT_ENGINE", "vectorized")
    with pytest.raises(ValueError, match=both):
        default_engine()


def test_unknown_kernel_backend_scope_raises():
    for name in ("bogus", "vectorized", "compiled", "off", None):
        with pytest.raises(ValueError, match="kernel backend"):
            kernels.use(name)


@dataclass(frozen=True)
class KernelProbeSpec(ExperimentSpec):
    """One unit that reports whether compiled kernels dispatch where it runs."""

    kind = "kernel_probe"

    def work_units(self):
        return [{}]

    def run_unit(self, unit, context):
        return kernels.compiled_active()

    def combine(self, units, outputs):
        return outputs


@pytest.mark.skipif(not BACKEND, reason="no compiled kernel backend on this machine")
@pytest.mark.parametrize("backend", [None, "none"], ids=["unset", "none"])
def test_forked_pool_worker_inherits_the_process_wide_backend(monkeypatch, backend):
    """A worker has no ``kernels.use`` scope: only the variable reaches it."""
    monkeypatch.setitem(SPEC_KINDS, KernelProbeSpec.kind, KernelProbeSpec)
    if backend is None:
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
    else:
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", backend)
    runner = ExperimentRunner(backend=ProcessPoolBackend(max_workers=1))
    assert runner.run(KernelProbeSpec()).payload == [backend is None]
