"""A job's work units share one sampled vulnerable-cell population."""

import hashlib

import numpy as np
import pytest

from repro.dram.vulnerability import CellVulnerabilityModel
from repro.experiments import (
    ChipProfileSpec,
    DefenseMatrixSpec,
    ExperimentRunner,
    FlipSweepSpec,
    RefsyncSweepSpec,
    ResultStore,
    TrrSamplingSpec,
)
from repro.experiments.cache import ExperimentContext
from repro.experiments.specs import _shared_chip
from repro.faults.profiles import BitFlipProfile

SMALL_KINDS = {
    "trr": lambda seed: TrrSamplingSpec(chip_seed=seed, windows=8),
    "refsync": lambda seed: RefsyncSweepSpec(chip_seed=seed, windows=6, act_rates=(0, 32), phases=(0, 2)),
    "profile": lambda seed: ChipProfileSpec(chip_seed=seed),
    "sweep": lambda seed: FlipSweepSpec(chip_seed=seed, hammer_counts=(100_000, 900_000),
                                        open_cycles=(10_000_000, 100_000_000)),
    "defense": lambda seed: DefenseMatrixSpec(chip_seed=seed),
}


@pytest.fixture
def samples(monkeypatch):
    calls = []
    original = CellVulnerabilityModel._sample_bank

    def counting(self, bank):
        calls.append((self.seed, bank))
        return original(self, bank)

    monkeypatch.setattr(CellVulnerabilityModel, "_sample_bank", counting)
    return calls


@pytest.mark.parametrize("name", ["trr", "refsync", "profile"])
def test_one_sample_per_job_and_bank(tmp_path, samples, name):
    spec = SMALL_KINDS[name](5)
    ExperimentRunner(store=ResultStore(tmp_path)).run(spec, save_as=name)
    assert sorted(samples) == [(5, bank) for bank in range(spec.geometry.num_banks)]


#: sha256 of each kind's stored file for chip seeds 5 and 6, recorded from a
#: fresh runner before a job's units shared anything.  A new value means
#: stored results of that kind change.
PINNED = {
    ("trr", 5): "0367fa5ff004c44f4c925380c700cec19244383c7f85714e126e10f4238365aa",
    ("trr", 6): "5dc64094aa6a718f31052dbc6e59e7fc7d8c284abe0468099e60e38a3dee3e37",
    ("refsync", 5): "68fd8e7ec87d184ded77a87e7f3bf575e1760a09dddaaec4003c7b5c99f32c2f",
    ("refsync", 6): "8f31d7d1a424f2080cd6691e206467f71c73c2dd6fcdca36fa052523ea2ca7e9",
    ("profile", 5): "a319f9edbfc82bbef1e5def470401b025e3e7ebbdabe1473292edfb324e10a17",
    ("profile", 6): "91587d4d82325a7cfbee29d1ad8b3bdd8839e5866ca53320995c450b61bbfc55",
    ("sweep", 5): "f5e13771aeda833d98578e1f0ec44b0933745254a65fa0f64ccd4403beecd016",
    ("sweep", 6): "43d6b65055040fb1fafd9790cb3700e81b96cd5e9125f8f2691b6188657def1e",
    ("defense", 5): "eb577f3261561cd9d5fcc588c3d3cdd0317996e0b3e5503c003104472c76ee9e",
    ("defense", 6): "18c321657861504ec2526f340eb211dcea38f1835befaeda9733e63323cb61b4",
}


@pytest.mark.parametrize("name", sorted(SMALL_KINDS))
def test_back_to_back_seeds_store_pinned_bytes(tmp_path, name):
    runner = ExperimentRunner(store=ResultStore(tmp_path))
    for seed in (5, 6):
        runner.run(SMALL_KINDS[name](seed), save_as=f"{name}-{seed}")
        stored = runner.store.path_for(f"{name}-{seed}").read_bytes()
        assert hashlib.sha256(stored).hexdigest() == PINNED[name, seed]


def test_job_artefacts_leave_the_memo_alone(tmp_path):
    runner = ExperimentRunner(store=ResultStore(tmp_path))
    pairs = [runner.context.memo(("pair", seed), object) for seed in (0, 1)]
    for name in ("trr", "profile"):
        runner.run(SMALL_KINDS[name](5), save_as=name)
    assert [runner.context.memo(("pair", seed), object) for seed in (0, 1)] == pairs
    assert list(runner.context._memo) == [("pair", 0), ("pair", 1)]
    assert runner.context._job is None


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_ideal_counts_equal_the_thresholded_model(seed):
    spec = ChipProfileSpec(chip_seed=seed)
    outcome = ExperimentRunner().run(spec).payload
    model = CellVulnerabilityModel(spec.geometry, None, seed=seed)
    assert outcome.ideal_rowhammer_cells == len(
        BitFlipProfile.from_vulnerability_model(model, "rowhammer", spec.hammer_count))
    assert outcome.ideal_rowpress_cells == len(
        BitFlipProfile.from_vulnerability_model(model, "rowpress", spec.open_cycles))


def test_shared_map_arrays_are_read_only():
    context = ExperimentContext()
    spec = ChipProfileSpec()
    with context.job():
        first = _shared_chip(context, spec.geometry, spec.chip_seed)
        second = _shared_chip(context, spec.geometry, spec.chip_seed)
    assert first is not second and first.bank(0) is not second.bank(0)
    assert first.bank(0).vulnerability is second.bank(0).vulnerability
    for array in first.bank(0).vulnerability.arrays_for("rowpress"):
        with pytest.raises(ValueError):
            array[0] = 1


def test_combine_reads_chunks_that_hold_bare_profiles():
    spec = ChipProfileSpec(geometry=ChipProfileSpec().geometry.__class__(
        num_banks=2, rows_per_bank=16, cols_per_row=128), row_stride=1)
    context = ExperimentContext()
    units = spec.work_units()
    outputs = [spec.run_unit(unit, context) for unit in units]
    expected = spec.combine(units, outputs)
    legacy = spec.combine(units, [output["profile"] for output in outputs])
    assert legacy.ideal_rowhammer_cells == expected.ideal_rowhammer_cells
    assert legacy.ideal_rowpress_cells == expected.ideal_rowpress_cells
    for mechanism in ("rowhammer", "rowpress"):
        np.testing.assert_array_equal(
            legacy.pair.profile_for(mechanism).flat_indices,
            expected.pair.profile_for(mechanism).flat_indices,
        )


def test_trr_units_share_one_frozen_timeline():
    context = ExperimentContext()
    spec = TrrSamplingSpec(windows=8)
    with context.job():
        results = [spec.run_unit(unit, context) for unit in spec.work_units()]
        shared = dict(context._job)
    assert len(shared) == 2 and not context._memo
    (timeline, windows), = [value for key, value in shared.items() if key[0] == "trr_timeline"]
    assert windows.geometry == spec.geometry
    arrays = [timeline.ops, timeline.rows, windows.acts, windows.distinct_rows]
    for keyed in (windows.acted, windows.hammered, windows.pressed, windows.press_victims):
        arrays += [keyed.rows, keyed.values]
    for array in arrays:
        with pytest.raises(ValueError):
            array[...] = 0
    assert results[0].total_flips > 0
