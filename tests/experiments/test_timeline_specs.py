"""Timeline experiment kinds: round-trips, backend determinism, nan conventions.

The ``trr_sampling`` and ``refsync_sweep`` specs ride the same rails as the
older chip experiments: JSON round-trips through ``spec_from_dict``, stable
spec hashes, byte-identical stored envelopes across the serial and
process backends, and nan-aware persistence (a refsync cell with zero
activations has an undefined sampled fraction; it must survive a store
round-trip as nan and render as ``-`` in reports).
"""

import json
import math

import pytest

from repro.analysis.figures import render_heatmap, render_sampling_histogram
from repro.dram.geometry import DramGeometry
from repro.experiments import (
    SPEC_KINDS,
    ExperimentRunner,
    ProcessPoolBackend,
    RefsyncSweepSpec,
    ResultStore,
    TrrSamplingSpec,
    spec_from_dict,
    spec_hash,
)

SMALL_GEOMETRY = DramGeometry(num_banks=1, rows_per_bank=48, cols_per_row=128)

SMALL_REFSYNC = RefsyncSweepSpec(
    geometry=SMALL_GEOMETRY,
    victim_row=24,
    windows=6,
    act_rates=(0, 48),
    phases=(0, 2),
    decoy_rows=(2, 6),
)

SMALL_TRR = TrrSamplingSpec(
    geometry=SMALL_GEOMETRY,
    aggressor_rows=(23, 25),
    windows=6,
    capacities=(0, 2),
)


def _round_trip(spec):
    return spec_from_dict(json.loads(json.dumps(spec.to_dict())))


class TestRoundTrips:
    def test_kinds_registered(self):
        assert "trr_sampling" in SPEC_KINDS
        assert "refsync_sweep" in SPEC_KINDS

    @pytest.mark.parametrize(
        "spec",
        [TrrSamplingSpec(), RefsyncSweepSpec(), SMALL_TRR, SMALL_REFSYNC],
        ids=["trr-default", "refsync-default", "trr-small", "refsync-small"],
    )
    def test_specs_round_trip(self, spec):
        assert _round_trip(spec) == spec

    def test_customised_refsync_round_trips(self):
        spec = RefsyncSweepSpec(
            geometry=SMALL_GEOMETRY,
            chip_seed=99,
            victim_row=10,
            act_rates=(0, 16, 32),
            phases=(1, 3),
            decoy_rows=(4,),
            capacity=3,
            policy="stride",
            refresh_bins=6,
        )
        back = _round_trip(spec)
        assert back == spec
        assert back.policy == "stride"

    def test_customised_trr_sampling_round_trips(self):
        spec = TrrSamplingSpec(
            geometry=SMALL_GEOMETRY,
            capacities=(0, 1, 2, 8),
            policy="random",
            sampler_seed=17,
            refresh_bins=4,
        )
        assert _round_trip(spec) == spec

    @pytest.mark.parametrize(
        "spec", [SMALL_TRR, SMALL_REFSYNC], ids=["trr", "refsync"]
    )
    def test_spec_hash_stable_under_round_trip(self, spec):
        assert spec_hash(spec.to_dict()) == spec_hash(_round_trip(spec).to_dict())

    def test_spec_hash_distinguishes_fields(self):
        base = SMALL_REFSYNC
        changed = RefsyncSweepSpec(
            geometry=SMALL_GEOMETRY,
            victim_row=24,
            windows=6,
            act_rates=(0, 48),
            phases=(0, 2),
            decoy_rows=(2, 6),
            capacity=base.capacity + 1,
        )
        assert spec_hash(base.to_dict()) != spec_hash(changed.to_dict())


class TestBackendDeterminism:
    def _stored_bytes(self, tmp_path, label, backend, spec):
        store = ResultStore(tmp_path / label)
        ExperimentRunner(store=store, backend=backend).run(spec, save_as="exp")
        return store.path_for("exp").read_text()

    @pytest.mark.parametrize(
        "spec", [SMALL_TRR, SMALL_REFSYNC], ids=["trr", "refsync"]
    )
    def test_process_pool_matches_serial(self, tmp_path, spec):
        serial = self._stored_bytes(tmp_path, "serial", None, spec)
        pooled = self._stored_bytes(
            tmp_path, "process", ProcessPoolBackend(max_workers=2), spec
        )
        assert pooled == serial

    def test_engines_agree_through_specs(self, tmp_path, monkeypatch):
        vec = ExperimentRunner().run(SMALL_REFSYNC).payload
        monkeypatch.setenv("REPRO_DEFAULT_ENGINE", "reference")
        ref = ExperimentRunner().run(SMALL_REFSYNC).payload
        assert vec.flips == ref.flips
        assert vec.nrr_rows == ref.nrr_rows
        assert repr(vec.sampled_fractions) == repr(ref.sampled_fractions)


class TestNanConventions:
    def test_zero_act_cell_is_nan_and_survives_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        result = ExperimentRunner(store=store).run(SMALL_REFSYNC, save_as="refsync")
        outcome = result.payload
        zero_cell = outcome.sampled_fractions[0][0]  # act_rate=0, phase=0
        assert math.isnan(zero_cell)

        raw = store.path_for("refsync").read_text()
        assert "NaN" not in raw  # strict JSON: nan is encoded as null

        loaded = store.load("refsync").payload
        assert math.isnan(loaded.sampled_fractions[0][0])
        assert loaded.flips == outcome.flips
        assert loaded.nrr_rows == outcome.nrr_rows

    def test_nan_cell_renders_as_dash(self):
        outcome = ExperimentRunner().run(SMALL_REFSYNC).payload
        rendered = render_heatmap(
            outcome.sampled_fractions,
            row_labels=SMALL_REFSYNC.act_rates,
            col_labels=SMALL_REFSYNC.phases,
            digits=2,
        )
        # act_rate=0 / phase=0 is the only empty window: no aggressor ACTs
        # and no decoy slots, so the sampled fraction is undefined.  With
        # phase=2 the decoy activations alone keep the cell defined.
        first_data_row = rendered.splitlines()[2]
        assert first_data_row.split() == ["0", "-", "1.00"]


class TestOutcomeAccessors:
    def test_trr_outcome_round_trips_and_reports(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        result = ExperimentRunner(store=store).run(SMALL_TRR, save_as="trr")
        outcome = result.payload
        by_capacity = outcome.flips_by_capacity()
        assert sorted(by_capacity) == [0, 2]
        # An unsampled chip must flip at least as much as a defended one.
        assert by_capacity[0] >= by_capacity[2]

        loaded = store.load("trr").payload
        assert loaded.flips_by_capacity() == by_capacity
        for capacity, timeline_result in loaded.entries:
            text = render_sampling_histogram(
                timeline_result.sampling_histogram, title=f"capacity {capacity}"
            )
            assert text.startswith(f"capacity {capacity}")

    def test_refsync_outcome_max_flips(self):
        outcome = ExperimentRunner().run(SMALL_REFSYNC).payload
        assert outcome.max_flips() == max(
            cell for row in outcome.flips for cell in row
        )
        assert tuple(outcome.act_rates) == SMALL_REFSYNC.act_rates
        assert tuple(outcome.phases) == SMALL_REFSYNC.phases
