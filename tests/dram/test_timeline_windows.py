"""Window aggregation of the compiled timeline engine, beyond the results.

The golden suite compares :class:`TimelineResult` objects.  These cases
add what it leaves out: the bank state a run leaves behind (data,
disturbance accumulators, activation counters) and aggressors activated
next to each other, where an activated row must not count as a hammer
victim of its activated neighbour.
"""

import numpy as np
import pytest

from repro.defenses.trr import TrrSampler
from repro.dram.chip import DramChip
from repro.dram.geometry import DramGeometry
from repro.dram.timeline import TimelineEngine, build_hammer_timeline, build_press_timeline
from repro.dram.timing import DramTimings
from repro.dram.vulnerability import VulnerabilityParameters
from tests.dram.test_timeline_golden import merge_timelines

TIMINGS = DramTimings()
GEOMETRY = DramGeometry(num_banks=2, rows_per_bank=48, cols_per_row=256)
PARAMS = VulnerabilityParameters(
    rh_density=0.3,
    rh_threshold_min=100.0,
    rh_threshold_log_mean=float(np.log(300.0)),
    rh_threshold_log_sigma=0.6,
    rp_density=0.2,
    rp_threshold_min=30_000.0,
    rp_threshold_log_mean=float(np.log(60_000.0)),
    rp_threshold_log_sigma=0.6,
)


def run(engine, timeline, seed, ones, capacity):
    chip = DramChip(
        GEOMETRY, timings=TIMINGS, vulnerability_parameters=PARAMS, seed=seed, engine=engine
    )
    for bank, row in ones:
        chip.bank(bank).write_row(row, np.ones(GEOMETRY.cols_per_row, dtype=np.uint8))
    sampler = TrrSampler(capacity=capacity, policy="stride", seed=seed) if capacity else None
    result = TimelineEngine(chip, sampler=sampler, refresh_bins=6, engine=engine).run(timeline)
    state = [
        (bank.data.tobytes(), bank.hammer_accumulator.tolist(),
         bank.press_accumulator.tolist(), bank.activation_counts.tolist())
        for bank in (chip.bank(index) for index in range(GEOMETRY.num_banks))
    ]
    return result.to_dict(), state


@pytest.mark.parametrize("seed", [1, 6])
@pytest.mark.parametrize("capacity", [0, 2])
def test_adjacent_aggressors_leave_identical_results_and_state(seed, capacity):
    # Rows 23-25 are activated side by side, 24 holding the opposite data,
    # while bank 1 is pressed on adjacent rows in the same windows.
    hammer = build_hammer_timeline(
        TIMINGS, bank=0, aggressor_rows=(23, 24, 25, 30), windows=12, acts_per_window=150
    )
    press = build_press_timeline(
        TIMINGS, bank=1, pressed_rows=(10, 11), windows=12,
        opens_per_window=2, open_cycles=4_000,
    )
    timeline = merge_timelines(hammer, press)
    timeline.validate(TIMINGS, GEOMETRY)
    ones = [(0, 23), (0, 25), (0, 30), (1, 10)]
    reference = run("reference", timeline, seed, ones, capacity)
    compiled = run("compiled", timeline, seed, ones, capacity)
    assert compiled == reference
    flips = reference[0]["flips"]
    assert flips or capacity  # the undefended run must exercise flips
    assert not [f for f in flips if f["bank"] == 0 and f["row"] in (23, 24, 25)]
