"""The array-built timeline builders against their per-command originals.

``build_refsync_timeline`` (and through it ``build_hammer_timeline``) and
``build_press_timeline`` lay out their command arrays with whole-array
indexing.  The per-command builders they replaced are kept below verbatim
as oracles: every array and dtype must match across window counts, act
rates, phases with and without decoys, decoy and aggressor counts and
press opens.
"""

import itertools

import numpy as np
import pytest

from repro.dram.timeline import (
    OP_ACT,
    OP_PRE,
    OP_REF,
    CommandTimeline,
    TimelineError,
    build_hammer_timeline,
    build_press_timeline,
    build_refsync_timeline,
)
from repro.dram.timing import DramTimings

TIMINGS = DramTimings()
FIELDS = ("ops", "banks", "rows", "cycles", "open_cycles")


def oracle_refsync(timings, bank, aggressor_rows, windows, acts_per_window, phase=0,
                   decoy_rows=()):
    aggressors = [int(row) for row in aggressor_rows]
    decoys = [int(row) for row in decoy_rows]
    t_refi = timings.t_refi_cycles
    slot = timings.hammer_iteration_cycles
    open_window = timings.t_ras_cycles + timings.hammer_sleep_cycles

    ops, banks, rows, cycles, opens = [], [], [], [], []
    aggressor_cursor = 0
    decoy_cursor = 0
    for window in range(windows):
        start = window * t_refi
        base = start + timings.t_rp_cycles

        def emit(slot_index: int, row: int) -> None:
            act_cycle = base + slot_index * slot
            ops.extend((OP_ACT, OP_PRE))
            banks.extend((bank, bank))
            rows.extend((row, row))
            cycles.extend((act_cycle, act_cycle + open_window))
            opens.extend((0, open_window))

        if decoys:
            for slot_index in range(phase):
                emit(slot_index, decoys[decoy_cursor % len(decoys)])
                decoy_cursor += 1
        for burst_index in range(acts_per_window):
            emit(phase + burst_index, aggressors[aggressor_cursor % len(aggressors)])
            aggressor_cursor += 1
        ops.append(OP_REF)
        banks.append(-1)
        rows.append(-1)
        cycles.append(start + t_refi)
        opens.append(0)
    return CommandTimeline(
        ops=np.asarray(ops), banks=np.asarray(banks), rows=np.asarray(rows),
        cycles=np.asarray(cycles), open_cycles=np.asarray(opens),
    )


def oracle_press(timings, bank, pressed_rows, windows, opens_per_window, open_cycles):
    pressed = [int(row) for row in pressed_rows]
    t_refi = timings.t_refi_cycles
    iteration = open_cycles + timings.t_rp_cycles

    ops, banks, rows, cycles, opens = [], [], [], [], []
    cursor = 0
    for window in range(windows):
        base = window * t_refi + timings.t_rp_cycles
        for index in range(opens_per_window):
            row = pressed[cursor % len(pressed)]
            cursor += 1
            act_cycle = base + index * iteration
            ops.extend((OP_ACT, OP_PRE))
            banks.extend((bank, bank))
            rows.extend((row, row))
            cycles.extend((act_cycle, act_cycle + open_cycles))
            opens.extend((0, open_cycles))
        ops.append(OP_REF)
        banks.append(-1)
        rows.append(-1)
        cycles.append((window + 1) * t_refi)
        opens.append(0)
    return CommandTimeline(
        ops=np.asarray(ops), banks=np.asarray(banks), rows=np.asarray(rows),
        cycles=np.asarray(cycles), open_cycles=np.asarray(opens),
    )


def assert_same(built, expected):
    for name in FIELDS:
        got, want = getattr(built, name), getattr(expected, name)
        assert got.dtype == want.dtype == np.int64, name
        assert np.array_equal(got, want), name


AGGRESSORS = [(24,), (23, 25), (3, 9, 17), (0, 5, 10, 15, 20)]
DECOYS = [(), (2,), (2, 6, 10), (40, 41, 42, 43, 44)]


class TestRefsyncBuilder:
    @pytest.mark.parametrize(
        "windows,acts,phase",
        list(itertools.product((1, 2, 5), (0, 1, 7, 64), (0, 1, 3, 8))),
    )
    def test_matches_per_command_builder(self, windows, acts, phase):
        for aggressors, decoys in itertools.product(AGGRESSORS, DECOYS):
            built = build_refsync_timeline(
                TIMINGS, 1, aggressors, windows, acts, phase=phase, decoy_rows=decoys
            )
            assert_same(
                built,
                oracle_refsync(TIMINGS, 1, aggressors, windows, acts, phase, decoys),
            )

    def test_phase_without_decoys_delays_the_burst(self):
        built = build_refsync_timeline(TIMINGS, 0, (23, 25), 2, 4, phase=3)
        first_act = int(built.cycles[0])
        assert first_act == TIMINGS.t_rp_cycles + 3 * TIMINGS.hammer_iteration_cycles
        assert_same(built, oracle_refsync(TIMINGS, 0, (23, 25), 2, 4, phase=3))

    def test_full_window_of_slots(self):
        slots = (TIMINGS.t_refi_cycles - TIMINGS.t_rp_cycles) // TIMINGS.hammer_iteration_cycles
        for phase, decoys in ((0, ()), (5, ()), (5, (2, 6))):
            built = build_refsync_timeline(
                TIMINGS, 0, (23, 25), 3, slots - phase, phase=phase, decoy_rows=decoys
            )
            assert_same(
                built, oracle_refsync(TIMINGS, 0, (23, 25), 3, slots - phase, phase, decoys)
            )
            built.validate(TIMINGS)

    def test_idle_windows_need_no_rows(self):
        assert_same(
            build_refsync_timeline(TIMINGS, 0, (), 3, 0, phase=2),
            oracle_refsync(TIMINGS, 0, (), 3, 0, phase=2),
        )
        assert_same(
            build_press_timeline(TIMINGS, 0, (), 3, 0, 1000),
            oracle_press(TIMINGS, 0, (), 3, 0, 1000),
        )

    def test_hammer_builder_is_the_phase0_refsync_pattern(self):
        for aggressors in AGGRESSORS:
            assert_same(
                build_hammer_timeline(TIMINGS, 0, aggressors, 4, 32),
                oracle_refsync(TIMINGS, 0, aggressors, 4, 32),
            )

    def test_checks_are_kept(self):
        with pytest.raises(TimelineError, match="requires aggressor rows"):
            build_refsync_timeline(TIMINGS, 0, (), 2, 4)
        with pytest.raises(ValueError):
            build_refsync_timeline(TIMINGS, 0, (23,), 0, 4)
        with pytest.raises(ValueError):
            build_refsync_timeline(TIMINGS, 0, (23,), 2, 4, phase=-1)
        slots = (TIMINGS.t_refi_cycles - TIMINGS.t_rp_cycles) // TIMINGS.hammer_iteration_cycles
        with pytest.raises(TimelineError, match="exceed"):
            build_refsync_timeline(TIMINGS, 0, (23,), 1, slots, phase=1)


class TestPressBuilder:
    @pytest.mark.parametrize(
        "windows,opens,open_cycles",
        list(itertools.product((1, 3), (0, 1, 2, 5), (TIMINGS.t_ras_cycles, 1000, 3000))),
    )
    def test_matches_per_command_builder(self, windows, opens, open_cycles):
        for pressed in [(24,), (10, 11), (3, 9, 17, 30)]:
            built = build_press_timeline(TIMINGS, 1, pressed, windows, opens, open_cycles)
            assert_same(
                built, oracle_press(TIMINGS, 1, pressed, windows, opens, open_cycles)
            )
            built.validate(TIMINGS)

    def test_checks_are_kept(self):
        with pytest.raises(TimelineError, match="requires pressed rows"):
            build_press_timeline(TIMINGS, 0, (), 1, 1, 1000)
        with pytest.raises(TimelineError, match="tRAS"):
            build_press_timeline(TIMINGS, 0, (24,), 1, 1, TIMINGS.t_ras_cycles - 1)
        with pytest.raises(TimelineError, match="do not fit"):
            build_press_timeline(TIMINGS, 0, (24,), 1, 3, 6500)
