"""Golden differential suite: timeline engine vs the per-command reference.

The command-timeline engine keeps two implementations under the golden
contract of docs/ENGINES.md: ``engine="reference"`` walks the command
stream one event at a time, ``engine="compiled"`` aggregates every
tREFI window in one array pass.  These tests pin them bit-for-bit — flips (values
*and* order), the windows flips latched in, per-window statistics, TRR
sampling histograms and the refresh/NRR counters — across seeds, bank
geometries and aggressor patterns, extending the parametrization style of
tests/faults/test_golden_equivalence.py to the timeline layer.
"""

import numpy as np
import pytest

from repro.defenses.trr import TRR_SAMPLING_POLICIES, TrrSampler
from repro.dram.chip import DramChip
from repro.dram.geometry import DramGeometry
from repro.dram.timeline import (
    CommandTimeline,
    TimelineEngine,
    build_hammer_timeline,
    build_press_timeline,
    build_refsync_timeline,
)
from repro.dram.timing import DramTimings
from repro.dram.vulnerability import VulnerabilityParameters

TIMINGS = DramTimings()

#: Thresholds with an onset a few hundred ACTs / a few thousand open cycles
#: so per-tREFI accumulation (~306 hammer slots per window) produces flips.
TIMELINE_PARAMS = VulnerabilityParameters(
    rh_density=0.15,
    rh_threshold_min=300.0,
    rh_threshold_log_mean=float(np.log(600.0)),
    rh_threshold_log_sigma=0.6,
    rp_density=0.2,
    rp_threshold_min=30_000.0,
    rp_threshold_log_mean=float(np.log(60_000.0)),
    rp_threshold_log_sigma=0.6,
)

GEOMETRIES = [
    DramGeometry(num_banks=1, rows_per_bank=64, cols_per_row=512),
    DramGeometry(num_banks=2, rows_per_bank=48, cols_per_row=256),
]


def flip_tuples(flips):
    return [(f.bank, f.row, f.col, f.before, f.after, f.mechanism) for f in flips]


def make_chip(engine, geometry, seed, ones_rows):
    """A chip for one engine with the listed (bank, row) pairs set to ones."""
    chip = DramChip(
        geometry,
        timings=TIMINGS,
        vulnerability_parameters=TIMELINE_PARAMS,
        seed=seed,
        engine=engine,
    )
    ones = np.ones(geometry.cols_per_row, dtype=np.uint8)
    for bank, row in ones_rows:
        chip.bank(bank).write_row(row, ones)
    return chip


def run_both(timeline, geometry, seed, ones_rows, sampler_factory=None, refresh_bins=8):
    """Run ``timeline`` on fresh reference and compiled chips."""
    results = []
    for engine in ("reference", "compiled"):
        chip = make_chip(engine, geometry, seed, ones_rows)
        sampler = sampler_factory() if sampler_factory else None
        results.append(
            TimelineEngine(
                chip, sampler=sampler, refresh_bins=refresh_bins, engine=engine
            ).run(timeline)
        )
    return results


def assert_identical(reference, compiled):
    """Full bit-identity of two TimelineResult objects."""
    assert flip_tuples(reference.flips) == flip_tuples(compiled.flips)
    assert reference.flip_windows == compiled.flip_windows
    assert [w.to_dict() for w in reference.windows] == [
        w.to_dict() for w in compiled.windows
    ]
    assert reference.sampling_histogram == compiled.sampling_histogram
    assert reference.refs_issued == compiled.refs_issued
    assert reference.nrr_rows_issued == compiled.nrr_rows_issued
    assert reference.duration_cycles == compiled.duration_cycles


def merge_timelines(primary, secondary):
    """Interleave two per-bank timelines, keeping only the primary's REFs.

    Both inputs must span the same windows; the merge re-sorts by cycle
    (stable), producing a multi-bank stream whose REF placement is still
    exactly one per boundary.
    """
    keep = secondary.ops != 2  # drop the secondary's REFs
    ops = np.concatenate([primary.ops, secondary.ops[keep]])
    banks = np.concatenate([primary.banks, secondary.banks[keep]])
    rows = np.concatenate([primary.rows, secondary.rows[keep]])
    cycles = np.concatenate([primary.cycles, secondary.cycles[keep]])
    opens = np.concatenate([primary.open_cycles, secondary.open_cycles[keep]])
    order = np.argsort(cycles, kind="stable")
    return CommandTimeline(
        ops=ops[order], banks=banks[order], rows=rows[order],
        cycles=cycles[order], open_cycles=opens[order],
    )


class TestHammerPatterns:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=["1x64", "2x48"])
    def test_double_sided_identical(self, seed, geometry):
        timeline = build_hammer_timeline(
            TIMINGS, bank=0, aggressor_rows=(23, 25), windows=16, acts_per_window=80
        )
        reference, compiled = run_both(
            timeline, geometry, seed, [(0, 23), (0, 25)]
        )
        assert_identical(reference, compiled)
        assert reference.total_flips > 0  # the case must exercise flips

    @pytest.mark.parametrize("seed", [0, 7])
    def test_single_sided_identical(self, seed):
        geometry = GEOMETRIES[0]
        timeline = build_hammer_timeline(
            TIMINGS, bank=0, aggressor_rows=(30,), windows=12, acts_per_window=120
        )
        reference, compiled = run_both(timeline, geometry, seed, [(0, 30)])
        assert_identical(reference, compiled)

    @pytest.mark.parametrize("seed", [2, 9])
    def test_many_sided_identical(self, seed):
        geometry = GEOMETRIES[0]
        aggressors = (10, 12, 14, 40, 42)
        timeline = build_hammer_timeline(
            TIMINGS, bank=0, aggressor_rows=aggressors, windows=10, acts_per_window=100
        )
        reference, compiled = run_both(
            timeline, geometry, seed, [(0, row) for row in aggressors]
        )
        assert_identical(reference, compiled)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_multi_bank_interleaved_identical(self, seed):
        geometry = GEOMETRIES[1]
        bank0 = build_hammer_timeline(
            TIMINGS, bank=0, aggressor_rows=(20, 22), windows=8, acts_per_window=90
        )
        bank1 = build_hammer_timeline(
            TIMINGS, bank=1, aggressor_rows=(8, 10), windows=8, acts_per_window=60
        )
        merged = merge_timelines(bank0, bank1)
        merged.validate(TIMINGS, geometry)
        reference, compiled = run_both(
            merged, geometry, seed, [(0, 20), (0, 22), (1, 8), (1, 10)]
        )
        assert_identical(reference, compiled)

    @pytest.mark.parametrize("seed", [0, 4])
    def test_trailing_partial_window_identical(self, seed):
        geometry = GEOMETRIES[0]
        full = build_hammer_timeline(
            TIMINGS, bank=0, aggressor_rows=(23, 25), windows=12, acts_per_window=100
        )
        # Strip the final REF: the last window becomes a trailing partial
        # window that latches flips at end-of-trace without refreshing.
        truncated = CommandTimeline(
            ops=full.ops[:-1], banks=full.banks[:-1], rows=full.rows[:-1],
            cycles=full.cycles[:-1], open_cycles=full.open_cycles[:-1],
        )
        truncated.validate(TIMINGS, geometry)
        reference, compiled = run_both(truncated, geometry, seed, [(0, 23), (0, 25)])
        assert_identical(reference, compiled)
        assert not reference.windows[-1].refreshed
        assert reference.refs_issued == 11


class TestPressPatterns:
    @pytest.mark.parametrize("seed", [1, 5])
    def test_press_timeline_identical(self, seed):
        geometry = GEOMETRIES[0]
        timeline = build_press_timeline(
            TIMINGS, bank=0, pressed_rows=(20,), windows=10,
            opens_per_window=3, open_cycles=5_000,
        )
        reference, compiled = run_both(timeline, geometry, seed, [(0, 20)])
        assert_identical(reference, compiled)

    def test_adjacent_pressed_rows_identical(self):
        # Rows pressing each other (closer than the press_many spacing
        # floor) are legal on the timeline: window-synchronous accumulation
        # handles the shared victims with multiplicity on both engines.
        geometry = GEOMETRIES[0]
        timeline = build_press_timeline(
            TIMINGS, bank=0, pressed_rows=(20, 21), windows=8,
            opens_per_window=4, open_cycles=4_000,
        )
        reference, compiled = run_both(
            timeline, geometry, 3, [(0, 20), (0, 21)]
        )
        assert_identical(reference, compiled)


class TestSampledDefense:
    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("policy", sorted(TRR_SAMPLING_POLICIES))
    def test_decoyed_refsync_identical_under_every_policy(self, seed, policy):
        geometry = GEOMETRIES[0]
        timeline = build_refsync_timeline(
            TIMINGS, bank=0, aggressor_rows=(23, 25), windows=16,
            acts_per_window=80, phase=3, decoy_rows=(2, 6, 10),
        )
        ones = [(0, row) for row in (23, 25, 2, 6, 10)]
        reference, compiled = run_both(
            timeline, geometry, seed, ones,
            sampler_factory=lambda: TrrSampler(capacity=2, policy=policy, seed=5),
            refresh_bins=8,
        )
        assert_identical(reference, compiled)
        assert reference.nrr_rows_issued > 0

    def test_sampler_defeats_unphased_attack_on_both_engines(self):
        geometry = GEOMETRIES[0]
        timeline = build_hammer_timeline(
            TIMINGS, bank=0, aggressor_rows=(23, 25), windows=16, acts_per_window=80
        )
        reference, compiled = run_both(
            timeline, geometry, 0, [(0, 23), (0, 25)],
            sampler_factory=lambda: TrrSampler(capacity=2, policy="first", seed=0),
        )
        assert_identical(reference, compiled)
        # Both aggressors are sampled every window -> victims NRR'd -> no flips.
        assert reference.total_flips == 0
        assert reference.mean_sampled_fraction == 1.0


class TestRefreshBins:
    @pytest.mark.parametrize("refresh_bins", [1, 4, 16])
    def test_bin_schedule_identical(self, refresh_bins):
        geometry = GEOMETRIES[0]
        timeline = build_hammer_timeline(
            TIMINGS, bank=0, aggressor_rows=(23, 25), windows=20, acts_per_window=80
        )
        reference, compiled = run_both(
            timeline, geometry, 3, [(0, 23), (0, 25)], refresh_bins=refresh_bins
        )
        assert_identical(reference, compiled)

    def test_full_refresh_every_ref_prevents_flips(self):
        # refresh_bins=1 heals every row at every REF; per-window
        # accumulation (80 ACTs) never reaches the 300-ACT onset.
        geometry = GEOMETRIES[0]
        timeline = build_hammer_timeline(
            TIMINGS, bank=0, aggressor_rows=(23, 25), windows=20, acts_per_window=80
        )
        reference, compiled = run_both(
            timeline, geometry, 3, [(0, 23), (0, 25)], refresh_bins=1
        )
        assert_identical(reference, compiled)
        assert reference.total_flips == 0


class TestEngineOverride:
    def test_timeline_engine_overrides_the_chip_engine(self):
        # The timeline engine defaults to its chip's engine; an explicit
        # compiled engine on a reference chip must take the array pass and
        # stay on the golden contract.
        geometry = GEOMETRIES[0]
        timeline = build_hammer_timeline(
            TIMINGS, bank=0, aggressor_rows=(23, 25), windows=12, acts_per_window=90
        )
        chip_r = make_chip("reference", geometry, 0, [(0, 23), (0, 25)])
        chip_o = make_chip("reference", geometry, 0, [(0, 23), (0, 25)])
        reference = TimelineEngine(chip_r, refresh_bins=8).run(timeline)
        overridden = TimelineEngine(chip_o, refresh_bins=8, engine="compiled")
        assert overridden.engine == "compiled"
        assert_identical(reference, overridden.run(timeline))
