"""Command-level tREFI timeline engine (refresh-synchronized simulation).

The per-activation abstractions of :mod:`repro.dram.controller` hide the
structure real refresh-synchronized ("refsync") attacks exploit: *when* REF
commands land relative to the attacker's ACT bursts, and what an in-DRAM TRR
sampler manages to observe between two REFs.  This module models that
frontier at the command level:

* :class:`CommandTimeline` — an array-of-commands representation (opcode,
  bank, row, cycle, open-cycles per command) of an ACT/PRE/REF stream,
  validated against the tRC / tRAS / tREFI constraints of a
  :class:`~repro.dram.timing.DramTimings`;
* :func:`build_hammer_timeline` / :func:`build_refsync_timeline` /
  :func:`build_press_timeline` — pattern builders that emit valid timelines
  (one REF at every tREFI boundary, slotted ACT/PRE pairs, round-robin
  aggressors, optional decoy prefix + phase offset for refsync patterns);
* :class:`TimelineEngine` — executes a timeline against a
  :class:`~repro.dram.chip.DramChip` under *window-synchronous* semantics:
  disturbance accumulates while a tREFI window is open and flips latch when
  the window closes (at its REF, or at end-of-trace for a trailing partial
  window).  Two implementations are kept under the golden engine contract
  of ``docs/ENGINES.md``: ``engine="reference"`` is a per-command Python
  event loop; ``engine="compiled"`` aggregates every window's ACT
  counts, hammer and press contributions and per-bank ACT sequences in
  one array pass over the timeline, and its per-window loop keeps only
  the stateful steps (accumulate, evaluate flips, sampler NRRs, bin
  heal).  Both produce bit-identical :class:`TimelineResult` objects.

Window-synchronous physics (shared by both engines):

* every ACT in a window contributes one hammer count to each adjacent row
  that is not itself activated in that window (the per-aggressor
  generalisation of :meth:`DramBank.hammer`);
* every PRE contributes its recorded open-window cycles to the pressed
  row's neighbours (the :meth:`DramBank.press` accumulation — plain
  hammering therefore also presses its neighbours for tRAS+sleep cycles
  per iteration, which is physically faithful but far below RowPress
  thresholds);
* at window close, flips are evaluated once per touched bank (RowHammer
  victims first, then RowPress victims, banks ascending, victims ascending
  within a bank — the canonical order of the bank engines);
* when the close is a REF: an attached
  :class:`~repro.defenses.trr.TrrSampler` samples the window's ACT stream
  and its Nearby-Row-Refresh mitigations are applied (after flip
  latching — NRRs restore charge, they cannot undo flips), then the REF
  refreshes its *refresh bin* (``row % refresh_bins == ref_index %
  refresh_bins``), modelling the staggered per-REF row coverage a real
  chip's 8192-REF cycle has.  A victim row is therefore only fully healed
  every ``refresh_bins`` windows — the window a refsync attacker aims at.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.dram.cells import CellFlip
from repro.dram.chip import DramChip
from repro.dram.commands import CommandTrace, CommandType, DramCommand
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTimings
from repro.utils.validation import check_engine, check_non_negative, check_positive

#: Integer opcodes of the timeline's command arrays.
OP_ACT = 0
OP_PRE = 1
OP_REF = 2

_OP_TO_COMMAND = {OP_ACT: CommandType.ACT, OP_PRE: CommandType.PRE, OP_REF: CommandType.REF}
_COMMAND_TO_OP = {command: op for op, command in _OP_TO_COMMAND.items()}


class TimelineError(ValueError):
    """A command timeline violates the DDR4 timing or refresh constraints."""


@dataclass(frozen=True)
class CommandTimeline:
    """Array-of-commands representation of an ACT/PRE/REF stream.

    Commands are stored as five parallel numpy arrays (opcode, bank, row,
    issue cycle, recorded open-window cycles for PREs), which is what lets
    the compiled engine aggregate every tREFI window in one pass.  REF
    commands target the whole chip and carry ``bank = row = -1``, matching
    the :class:`~repro.dram.commands.DramCommand` convention.

    Instances are immutable; build them with :meth:`from_commands` /
    :meth:`from_trace` or the pattern builders in this module.
    """

    ops: np.ndarray
    banks: np.ndarray
    rows: np.ndarray
    cycles: np.ndarray
    open_cycles: np.ndarray

    def __post_init__(self) -> None:
        for name in ("ops", "banks", "rows", "cycles", "open_cycles"):
            object.__setattr__(
                self, name, np.asarray(getattr(self, name), dtype=np.int64)
            )
        lengths = {getattr(self, name).size for name in
                   ("ops", "banks", "rows", "cycles", "open_cycles")}
        if len(lengths) != 1:
            raise TimelineError(f"command arrays disagree on length: {sorted(lengths)}")

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_commands(cls, commands: Sequence[DramCommand]) -> "CommandTimeline":
        """Build a timeline from :class:`DramCommand` objects.

        Only ACT / PRE / REF commands are representable; RD / WR / NRR in
        the input raise :class:`TimelineError` (the timeline engine issues
        NRRs itself, on behalf of the attached sampler).
        """
        ops, banks, rows, cycles, opens = [], [], [], [], []
        for command in commands:
            op = _COMMAND_TO_OP.get(command.command)
            if op is None:
                raise TimelineError(
                    f"timeline cannot represent {command.command.value} commands"
                )
            ops.append(op)
            banks.append(command.bank)
            rows.append(command.row)
            cycles.append(command.cycle)
            opens.append(command.open_cycles)
        return cls(
            ops=np.asarray(ops, dtype=np.int64),
            banks=np.asarray(banks, dtype=np.int64),
            rows=np.asarray(rows, dtype=np.int64),
            cycles=np.asarray(cycles, dtype=np.int64),
            open_cycles=np.asarray(opens, dtype=np.int64),
        )

    @classmethod
    def from_trace(cls, trace: CommandTrace) -> "CommandTimeline":
        """Build a timeline from a recorded :class:`CommandTrace`."""
        return cls.from_commands(list(trace))

    def to_trace(self) -> CommandTrace:
        """Convert back to a :class:`CommandTrace` of command objects."""
        trace = CommandTrace()
        for index in range(len(self)):
            trace.append(
                DramCommand(
                    command=_OP_TO_COMMAND[int(self.ops[index])],
                    bank=int(self.banks[index]),
                    row=int(self.rows[index]),
                    cycle=int(self.cycles[index]),
                    open_cycles=int(self.open_cycles[index]),
                )
            )
        return trace

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.ops.size)

    @property
    def last_cycle(self) -> int:
        """Issue cycle of the final command (0 for an empty timeline)."""
        return int(self.cycles[-1]) if len(self) else 0

    def num_windows(self, timings: DramTimings) -> int:
        """Number of tREFI windows the timeline spans (trailing partial included)."""
        if len(self) == 0:
            return 0
        full, remainder = divmod(self.last_cycle, timings.t_refi_cycles)
        if remainder == 0 and int(self.ops[-1]) == OP_REF:
            # The trace ends exactly on a boundary REF: no trailing partial.
            return int(full)
        return int(full) + 1

    def summary(self) -> Dict[str, int]:
        """Per-opcode command counts plus the spanned cycle range."""
        return {
            "total": len(self),
            "acts": int((self.ops == OP_ACT).sum()),
            "precharges": int((self.ops == OP_PRE).sum()),
            "refreshes": int((self.ops == OP_REF).sum()),
            "last_cycle": self.last_cycle,
        }

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(
        self, timings: DramTimings, geometry: Optional[DramGeometry] = None
    ) -> None:
        """Check the timeline invariants, raising :class:`TimelineError`.

        Enforced invariants (the ones the property suite drives):

        1. commands are sorted by cycle (non-decreasing);
        2. no two ACTs to the same (bank, row) closer than tRC;
        3. exactly one REF sits at every crossed tREFI boundary
           (``w * t_refi_cycles`` for ``w = 1 .. last_cycle // t_refi``),
           and nowhere else;
        4. with ``geometry``: bank/row coordinates are in range (REF uses
           the chip-wide ``-1`` convention).
        """
        if len(self) == 0:
            return
        if np.any(np.diff(self.cycles) < 0):
            raise TimelineError("commands must be sorted by cycle (non-decreasing)")
        known_ops = np.isin(self.ops, (OP_ACT, OP_PRE, OP_REF))
        if not known_ops.all():
            raise TimelineError(f"unknown opcode {int(self.ops[~known_ops][0])}")

        self._validate_act_spacing(timings)
        self._validate_refresh_placement(timings)
        if geometry is not None:
            self._validate_coordinates(geometry)

    def _validate_act_spacing(self, timings: DramTimings) -> None:
        act = self.ops == OP_ACT
        if not act.any():
            return
        banks = self.banks[act]
        rows = self.rows[act]
        cycles = self.cycles[act]
        order = np.lexsort((cycles, rows, banks))
        banks, rows, cycles = banks[order], rows[order], cycles[order]
        same_row = (banks[1:] == banks[:-1]) & (rows[1:] == rows[:-1])
        gaps = cycles[1:] - cycles[:-1]
        bad = same_row & (gaps < timings.t_rc_cycles)
        if bad.any():
            where = int(np.nonzero(bad)[0][0])
            raise TimelineError(
                f"ACTs to bank {int(banks[where + 1])} row {int(rows[where + 1])} "
                f"are {int(gaps[where])} cycles apart (< tRC = {timings.t_rc_cycles})"
            )

    def _validate_refresh_placement(self, timings: DramTimings) -> None:
        t_refi = timings.t_refi_cycles
        ref_cycles = self.cycles[self.ops == OP_REF]
        if np.any(ref_cycles % t_refi != 0) or np.any(ref_cycles == 0):
            raise TimelineError(
                "REF commands must sit exactly at tREFI boundaries (w * t_refi, w >= 1)"
            )
        boundaries = (ref_cycles // t_refi).astype(np.int64)
        if np.unique(boundaries).size != boundaries.size:
            raise TimelineError("duplicate REF at the same tREFI boundary")
        expected = np.arange(1, self.last_cycle // t_refi + 1, dtype=np.int64)
        if boundaries.size != expected.size or np.any(np.sort(boundaries) != expected):
            raise TimelineError(
                "exactly one REF is required per crossed tREFI window: expected "
                f"boundaries {expected.tolist()}, got {np.sort(boundaries).tolist()}"
            )

    def _validate_coordinates(self, geometry: DramGeometry) -> None:
        chipwide = self.ops == OP_REF
        if np.any(self.banks[chipwide] != -1) or np.any(self.rows[chipwide] != -1):
            raise TimelineError("REF commands must use bank = row = -1")
        banks = self.banks[~chipwide]
        rows = self.rows[~chipwide]
        if banks.size and (
            banks.min() < 0 or banks.max() >= geometry.num_banks
            or rows.min() < 0 or rows.max() >= geometry.rows_per_bank
        ):
            raise TimelineError("command coordinates outside the chip geometry")


# ----------------------------------------------------------------------
# Pattern builders
# ----------------------------------------------------------------------
def build_refsync_timeline(
    timings: DramTimings,
    bank: int,
    aggressor_rows: Sequence[int],
    windows: int,
    acts_per_window: int,
    phase: int = 0,
    decoy_rows: Sequence[int] = (),
) -> CommandTimeline:
    """A refresh-synchronized hammer pattern, one REF per tREFI boundary.

    Every window is divided into ACT+Sleep+PRE slots of
    ``hammer_iteration_cycles`` each (starting tRP after the boundary).
    ``phase`` slots lead the window: if ``decoy_rows`` is non-empty they are
    filled with decoy activations (round-robin) aimed at saturating a TRR
    sampler before the true burst; otherwise they stay idle (a pure phase
    delay).  The aggressor burst then occupies the next ``acts_per_window``
    slots, round-robin over ``aggressor_rows``.  The final REF at
    ``windows * t_refi`` closes the last window, so the built timeline has
    no trailing partial window.
    """
    check_positive("windows", windows)
    check_non_negative("acts_per_window", acts_per_window)
    check_non_negative("phase", phase)
    aggressors = [int(row) for row in aggressor_rows]
    decoys = [int(row) for row in decoy_rows]
    if acts_per_window > 0 and not aggressors:
        raise TimelineError("acts_per_window > 0 requires aggressor rows")
    t_refi = timings.t_refi_cycles
    slot = timings.hammer_iteration_cycles
    open_window = timings.t_ras_cycles + timings.hammer_sleep_cycles
    slots_available = (t_refi - timings.t_rp_cycles) // slot
    if phase + acts_per_window > slots_available:
        raise TimelineError(
            f"{phase} phase + {acts_per_window} act slots exceed the "
            f"{slots_available} slots of one tREFI window"
        )

    burst_slots = phase + np.arange(acts_per_window, dtype=np.int64)
    burst_rows = _round_robin(aggressors, windows, acts_per_window)
    if decoys:
        slots = np.concatenate((np.arange(phase, dtype=np.int64), burst_slots))
        slot_rows = np.hstack((_round_robin(decoys, windows, phase), burst_rows))
    else:
        slots, slot_rows = burst_slots, burst_rows
    return _slotted_timeline(
        t_refi, bank, timings.t_rp_cycles + slots * slot, slot_rows, open_window
    )


def build_hammer_timeline(
    timings: DramTimings,
    bank: int,
    aggressor_rows: Sequence[int],
    windows: int,
    acts_per_window: int,
) -> CommandTimeline:
    """A plain (phase-0, decoy-free) hammer timeline; see the refsync builder."""
    return build_refsync_timeline(
        timings, bank, aggressor_rows, windows, acts_per_window
    )


def build_press_timeline(
    timings: DramTimings,
    bank: int,
    pressed_rows: Sequence[int],
    windows: int,
    opens_per_window: int,
    open_cycles: int,
) -> CommandTimeline:
    """A RowPress timeline: long ACT→PRE open windows, one REF per boundary.

    Each press iteration keeps a row open for ``open_cycles`` (must be at
    least tRAS and fit the tREFI window) before precharging; iterations
    round-robin over ``pressed_rows``.
    """
    check_positive("windows", windows)
    check_non_negative("opens_per_window", opens_per_window)
    pressed = [int(row) for row in pressed_rows]
    if opens_per_window > 0 and not pressed:
        raise TimelineError("opens_per_window > 0 requires pressed rows")
    if open_cycles < timings.t_ras_cycles:
        raise TimelineError(
            f"open_cycles must be >= tRAS ({timings.t_ras_cycles}), got {open_cycles}"
        )
    t_refi = timings.t_refi_cycles
    iteration = open_cycles + timings.t_rp_cycles
    if opens_per_window * iteration + timings.t_rp_cycles > t_refi:
        raise TimelineError(
            f"{opens_per_window} open windows of {open_cycles} cycles do not "
            f"fit one tREFI window ({t_refi} cycles)"
        )

    offsets = timings.t_rp_cycles + np.arange(opens_per_window, dtype=np.int64) * iteration
    return _slotted_timeline(
        t_refi, bank, offsets, _round_robin(pressed, windows, opens_per_window), open_cycles
    )


def _round_robin(rows: Sequence[int], windows: int, per_window: int) -> np.ndarray:
    """``(windows, per_window)`` rows cycling through ``rows`` across windows."""
    picks = np.arange(windows * per_window, dtype=np.int64) % len(rows)
    return np.asarray(rows, dtype=np.int64)[picks].reshape(windows, per_window)


def _slotted_timeline(
    t_refi: int,
    bank: int,
    act_offsets: np.ndarray,
    slot_rows: np.ndarray,
    open_cycles: int,
) -> CommandTimeline:
    """Lay out one ACT/PRE pair per slot and close every window with a REF.

    ``act_offsets`` holds each slot's ACT cycle relative to its window's
    start (the same in every window), ``slot_rows`` the ``(windows,
    slots)`` rows activated; each PRE follows its ACT by ``open_cycles``.
    """
    windows, slots = slot_rows.shape
    shape = (windows, 2 * slots + 1)
    act, pre, pair = slice(0, 2 * slots, 2), slice(1, 2 * slots, 2), slice(0, 2 * slots)
    starts = np.arange(windows, dtype=np.int64)[:, None] * t_refi
    cycles = np.empty(shape, dtype=np.int64)
    cycles[:, act] = starts + act_offsets
    cycles[:, pre] = cycles[:, act] + open_cycles
    cycles[:, -1:] = starts + t_refi
    ops = np.full(shape, OP_REF, dtype=np.int64)
    ops[:, act] = OP_ACT
    ops[:, pre] = OP_PRE
    banks = np.full(shape, -1, dtype=np.int64)
    banks[:, pair] = bank
    rows = np.full(shape, -1, dtype=np.int64)
    rows[:, pair] = np.repeat(slot_rows, 2, axis=1)
    opens = np.zeros(shape, dtype=np.int64)
    opens[:, pre] = open_cycles
    return CommandTimeline(
        ops=ops.ravel(), banks=banks.ravel(), rows=rows.ravel(),
        cycles=cycles.ravel(), open_cycles=opens.ravel(),
    )


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class WindowStats:
    """Per-tREFI-window bookkeeping emitted by the timeline engine."""

    index: int
    acts: int = 0
    opens: int = 0
    distinct_rows: int = 0
    sampled_rows: int = 0
    sampled_acts: int = 0
    nrr_rows: int = 0
    flips: int = 0
    refreshed: bool = True

    @property
    def sampled_fraction(self) -> float:
        """Fraction of the window's ACTs whose row the sampler caught.

        ``nan`` for a zero-activation window (the undefined-ratio
        convention of ``rp_to_rh_ratio`` — reports render it as ``-``).
        """
        if self.acts == 0:
            return float("nan")
        return self.sampled_acts / self.acts

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable encoding; inverse of :meth:`from_dict`."""
        return {
            "index": self.index, "acts": self.acts, "opens": self.opens,
            "distinct_rows": self.distinct_rows, "sampled_rows": self.sampled_rows,
            "sampled_acts": self.sampled_acts, "nrr_rows": self.nrr_rows,
            "flips": self.flips, "refreshed": self.refreshed,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "WindowStats":
        """Rebuild the stats row from :meth:`to_dict` output."""
        return cls(**dict(payload))


@dataclass
class TimelineResult:
    """Everything a timeline run produced, in canonical (comparable) order.

    The golden differential suite compares two of these for full equality:
    flips (and the windows they latched in), per-window statistics, the
    sampler's per-row sampling histogram, and the refresh/NRR counters.
    """

    flips: List[CellFlip] = field(default_factory=list)
    flip_windows: List[int] = field(default_factory=list)
    windows: List[WindowStats] = field(default_factory=list)
    sampling_histogram: Dict[int, Dict[int, int]] = field(default_factory=dict)
    refs_issued: int = 0
    nrr_rows_issued: int = 0
    duration_cycles: int = 0

    @property
    def total_flips(self) -> int:
        """Number of bit flips latched over the whole timeline."""
        return len(self.flips)

    @property
    def mean_sampled_fraction(self) -> float:
        """Mean per-window sampled fraction over refreshed, non-idle windows.

        ``nan`` when no window had activations — zero-sample runs keep the
        undefined-ratio convention instead of reporting a misleading 0.
        """
        fractions = [
            window.sampled_fraction
            for window in self.windows
            if window.refreshed and window.acts > 0
        ]
        if not fractions:
            return float("nan")
        return float(np.mean(fractions))

    def flips_per_window(self) -> List[int]:
        """Flip count per window index (dense, zeros included)."""
        counts = [0] * len(self.windows)
        for window_index in self.flip_windows:
            counts[window_index] += 1
        return counts

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable encoding; inverse of :meth:`from_dict`."""
        return {
            "flips": [
                {
                    "bank": flip.bank, "row": flip.row, "col": flip.col,
                    "before": flip.before, "after": flip.after,
                    "mechanism": flip.mechanism, "window": window,
                }
                for flip, window in zip(self.flips, self.flip_windows)
            ],
            "windows": [window.to_dict() for window in self.windows],
            "sampling_histogram": {
                str(bank): {str(row): count for row, count in rows.items()}
                for bank, rows in self.sampling_histogram.items()
            },
            "refs_issued": self.refs_issued,
            "nrr_rows_issued": self.nrr_rows_issued,
            "duration_cycles": self.duration_cycles,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TimelineResult":
        """Rebuild a result from :meth:`to_dict` output."""
        flips, flip_windows = [], []
        for entry in payload.get("flips", ()):
            flips.append(
                CellFlip(
                    bank=int(entry["bank"]), row=int(entry["row"]),
                    col=int(entry["col"]), before=int(entry["before"]),
                    after=int(entry["after"]), mechanism=entry["mechanism"],
                )
            )
            flip_windows.append(int(entry["window"]))
        return cls(
            flips=flips,
            flip_windows=flip_windows,
            windows=[WindowStats.from_dict(entry) for entry in payload.get("windows", ())],
            sampling_histogram={
                int(bank): {int(row): int(count) for row, count in rows.items()}
                for bank, rows in payload.get("sampling_histogram", {}).items()
            },
            refs_issued=int(payload.get("refs_issued", 0)),
            nrr_rows_issued=int(payload.get("nrr_rows_issued", 0)),
            duration_cycles=int(payload.get("duration_cycles", 0)),
        )


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class TimelineEngine:
    """Executes a :class:`CommandTimeline` against a :class:`DramChip`.

    ``engine`` selects the execution strategy (defaults to the chip's
    engine): ``"reference"`` is a per-command event loop with dict-based
    window aggregation, ``"compiled"`` aggregates all tREFI windows with
    one pass of array operations.  Both strategies apply the identical
    window-synchronous physics documented in the module docstring and
    return bit-identical results; the golden differential
    suite (``tests/dram/test_timeline_golden.py``) enforces it.

    ``sampler`` is an optional :class:`~repro.defenses.trr.TrrSampler`
    observing the ACT stream; ``refresh_bins`` sets how many REF commands
    one full refresh cycle spans (1 = every REF heals every row).
    """

    def __init__(
        self,
        chip: DramChip,
        sampler=None,
        refresh_bins: int = 1,
        engine: Optional[str] = None,
    ):
        check_positive("refresh_bins", refresh_bins)
        self.chip = chip
        self.sampler = sampler
        self.refresh_bins = refresh_bins
        engine = chip.engine if engine is None else engine
        check_engine(engine)
        self.engine = engine
        #: (bank, mechanism) -> lowest cell threshold per row; see _evaluate_flips.
        self._row_floors: Dict[Tuple[int, str], np.ndarray] = {}

    # ------------------------------------------------------------------
    def run(
        self,
        timeline: CommandTimeline,
        validate: bool = True,
        windows: Optional["WindowAggregates"] = None,
    ) -> TimelineResult:
        """Execute ``timeline`` and return the latched flips and statistics.

        ``windows`` is ``WindowAggregates(timeline, geometry)`` built once by
        a caller that runs one timeline on several chips of this geometry;
        the compiled strategy builds it itself when it is not given, and
        the reference strategy never reads it.
        """
        if windows is not None and windows.geometry != self.chip.geometry:
            raise ValueError("window aggregates were built for another geometry")
        if validate:
            timeline.validate(self.chip.timings, self.chip.geometry)
        result = TimelineResult(duration_cycles=timeline.last_cycle)
        self._seen_banks: Set[int] = set()
        if self.engine == "reference":
            self._run_reference(timeline, result)
        else:
            self._run_vectorized(timeline, result, windows)
        if self.sampler is not None:
            result.sampling_histogram = self.sampler.histogram_snapshot()
        return result

    # ------------------------------------------------------------------
    # Reference strategy: per-command event loop
    # ------------------------------------------------------------------
    def _run_reference(self, timeline: CommandTimeline, result: TimelineResult) -> None:
        """Walk the command stream one event at a time (executable spec)."""
        acts: Dict[int, Dict[int, int]] = {}
        order: Dict[int, List[int]] = {}
        opens: Dict[int, Dict[int, int]] = {}
        pre_count = 0
        window_index = 0
        ref_index = 0
        pending = False
        for position in range(len(timeline)):
            op = int(timeline.ops[position])
            if op == OP_REF:
                self._close_window_reference(
                    result, window_index, acts, order, opens, pre_count, refreshed=True
                )
                self._scheduled_refresh(ref_index)
                result.refs_issued += 1
                ref_index += 1
                window_index += 1
                acts, order, opens = {}, {}, {}
                pre_count = 0
                pending = False
                continue
            bank = int(timeline.banks[position])
            row = int(timeline.rows[position])
            pending = True
            if op == OP_ACT:
                bank_acts = acts.setdefault(bank, {})
                bank_acts[row] = bank_acts.get(row, 0) + 1
                order.setdefault(bank, []).append(row)
            else:
                bank_opens = opens.setdefault(bank, {})
                bank_opens[row] = bank_opens.get(row, 0) + int(
                    timeline.open_cycles[position]
                )
                pre_count += 1
        if pending:
            self._close_window_reference(
                result, window_index, acts, order, opens, pre_count, refreshed=False
            )

    def _close_window_reference(
        self,
        result: TimelineResult,
        window_index: int,
        acts: Dict[int, Dict[int, int]],
        order: Dict[int, List[int]],
        opens: Dict[int, Dict[int, int]],
        pre_count: int,
        refreshed: bool,
    ) -> None:
        geometry = self.chip.geometry
        stats = WindowStats(index=window_index, refreshed=refreshed, opens=pre_count)
        for bank_index in sorted(set(acts) | set(opens)):
            bank = self.chip.bank(bank_index)
            self._seen_banks.add(bank_index)
            bank_acts = acts.get(bank_index, {})
            bank_opens = opens.get(bank_index, {})
            stats.acts += sum(bank_acts.values())
            stats.distinct_rows += len(bank_acts)

            hammer_contrib: Dict[int, int] = {}
            for aggressor, count in bank_acts.items():
                for neighbour in geometry.neighbours(aggressor):
                    if neighbour not in bank_acts:
                        hammer_contrib[neighbour] = hammer_contrib.get(neighbour, 0) + count
            victims = sorted(row for row, value in hammer_contrib.items() if value > 0)
            for victim in victims:
                bank.hammer_accumulator[victim] += hammer_contrib[victim]
            for aggressor, count in bank_acts.items():
                bank.activation_counts[aggressor] += count
            flips = bank.evaluate_flips(victims, set(bank_acts), "rowhammer")

            press_contrib: Dict[int, int] = {}
            for pressed, open_sum in bank_opens.items():
                for neighbour in geometry.neighbours(pressed):
                    press_contrib[neighbour] = press_contrib.get(neighbour, 0) + open_sum
            press_victims = sorted(
                row for row, value in press_contrib.items() if value > 0
            )
            for victim in press_victims:
                bank.press_accumulator[victim] += press_contrib[victim]
            flips.extend(bank.evaluate_flips(press_victims, set(bank_opens), "rowpress"))

            result.flips.extend(flips)
            result.flip_windows.extend([window_index] * len(flips))
            stats.flips += len(flips)

            if refreshed and self.sampler is not None:
                sampled = self.sampler.sample_window(
                    window_index, bank_index, order.get(bank_index, [])
                )
                stats.sampled_rows += len(sampled)
                stats.sampled_acts += sum(bank_acts.get(row, 0) for row in sampled)
                for sampled_row in sampled:
                    for victim in self.sampler.victim_rows(
                        sampled_row, geometry.rows_per_bank
                    ):
                        bank.refresh_row(victim)
                        stats.nrr_rows += 1
        result.nrr_rows_issued += stats.nrr_rows
        result.windows.append(stats)

    # ------------------------------------------------------------------
    # Vectorized strategy: one aggregation pass, then the stateful closes
    # ------------------------------------------------------------------
    def _run_vectorized(
        self,
        timeline: CommandTimeline,
        result: TimelineResult,
        windows: Optional["WindowAggregates"],
    ) -> None:
        """Aggregate every window up front, then close the windows in order."""
        if windows is None:
            windows = WindowAggregates(timeline, self.chip.geometry)
        for window_index in range(windows.count):
            refreshed = window_index < windows.refs
            stats = WindowStats(
                index=window_index,
                refreshed=refreshed,
                acts=int(windows.acts[window_index]),
                opens=int(windows.opens[window_index]),
                distinct_rows=int(windows.distinct_rows[window_index]),
            )
            for group in range(*windows.group_span(window_index)):
                self._close_bank_window(result, stats, windows, group)
            result.nrr_rows_issued += stats.nrr_rows
            result.windows.append(stats)
            if refreshed:
                self._scheduled_refresh(window_index)
                result.refs_issued += 1

    def _close_bank_window(
        self,
        result: TimelineResult,
        stats: WindowStats,
        windows: "WindowAggregates",
        group: int,
    ) -> None:
        """The stateful steps of one bank's window close, in canonical order."""
        bank_index = windows.group_banks[group]
        bank = self.chip.bank(bank_index)
        self._seen_banks.add(bank_index)
        acted, counts = windows.acted.slice(group)
        victims, hammer_sums = windows.hammered.slice(group)
        pressed, _ = windows.pressed.slice(group)
        press_victims, press_sums = windows.press_victims.slice(group)

        bank.hammer_accumulator[victims] += hammer_sums
        bank.activation_counts[acted] += counts
        flips = self._evaluate_flips(bank, victims, acted, "rowhammer")
        bank.press_accumulator[press_victims] += press_sums
        flips.extend(self._evaluate_flips(bank, press_victims, pressed, "rowpress"))

        result.flips.extend(flips)
        result.flip_windows.extend([stats.index] * len(flips))
        stats.flips += len(flips)

        if stats.refreshed and self.sampler is not None:
            sampled = self.sampler.sample_window(
                stats.index, bank_index, windows.act_sequence(group)
            )
            stats.sampled_rows += len(sampled)
            count_of = dict(zip(acted.tolist(), counts.tolist()))
            stats.sampled_acts += sum(count_of[row] for row in sampled)
            for sampled_row in sampled:
                for victim in self.sampler.victim_rows(
                    sampled_row, self.chip.geometry.rows_per_bank
                ):
                    bank.refresh_row(victim)
                    stats.nrr_rows += 1

    def _evaluate_flips(
        self, bank, victims: np.ndarray, aggressors: np.ndarray, mechanism: str
    ) -> List[CellFlip]:
        """``bank.evaluate_flips``, skipped when no victim row can reach a cell.

        A row's floor is the lowest threshold among its vulnerable cells
        (``inf`` without any), so ``floor <= accumulator`` fails for every
        victim exactly when no cell is over its threshold — the case in
        which the bank's own evaluation returns no flips and changes nothing.
        """
        key = (bank.index, mechanism)
        floors = self._row_floors.get(key)
        if floors is None:
            rows, _, thresholds, _ = bank.vulnerability.arrays_for(mechanism)
            floors = np.full(self.chip.geometry.rows_per_bank, np.inf)
            np.minimum.at(floors, rows, thresholds)
            self._row_floors[key] = floors
        accumulator = (
            bank.hammer_accumulator if mechanism == "rowhammer" else bank.press_accumulator
        )
        if not (floors[victims] <= accumulator[victims]).any():
            return []
        return bank.evaluate_flips(victims, aggressors.tolist(), mechanism)

    # ------------------------------------------------------------------
    # Shared bookkeeping
    # ------------------------------------------------------------------
    def _scheduled_refresh(self, ref_index: int) -> None:
        """Heal this REF's refresh bin on every bank the run has touched."""
        bin_rows = slice(ref_index % self.refresh_bins, None, self.refresh_bins)
        for bank_index in sorted(self._seen_banks):
            bank = self.chip.bank(bank_index)
            bank.hammer_accumulator[bin_rows] = 0.0
            bank.press_accumulator[bin_rows] = 0.0


class _KeyedSums:
    """Per-(window, bank) runs of rows with one summed value each.

    Built from ``cell`` keys ``(window * num_banks + bank) * rows_per_bank
    + row`` sorted ascending, so each touched (window, bank) group owns one
    contiguous run; :meth:`slice` returns its rows and values.
    """

    def __init__(self, cells: np.ndarray, values: np.ndarray, rows_per_bank: int,
                 groups: np.ndarray):
        self.rows = cells % rows_per_bank
        self.values = values
        self.spans = _group_spans(cells // rows_per_bank, groups)

    def slice(self, group: int) -> Tuple[np.ndarray, np.ndarray]:
        start, stop = self.spans[group]
        return self.rows[start:stop], self.values[start:stop]


def _group_spans(sorted_ids: np.ndarray, groups: np.ndarray) -> List[List[int]]:
    """``[start, stop)`` of each group's run in the ascending ``sorted_ids``."""
    return np.stack((
        np.searchsorted(sorted_ids, groups, side="left"),
        np.searchsorted(sorted_ids, groups, side="right"),
    ), axis=1).tolist()


def _sum_by_key(keys: np.ndarray, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted distinct ``keys`` and the sum of ``values`` over each."""
    if keys.size == 0:
        return keys, values
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(values[order], starts)


def _neighbour_sums(
    cells: np.ndarray, values: np.ndarray, rows_per_bank: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Add each cell's value to its in-bank row neighbours (row ± 1)."""
    rows = cells % rows_per_bank
    lower = rows > 0
    upper = rows < rows_per_bank - 1
    return _sum_by_key(
        np.concatenate((cells[lower] - 1, cells[upper] + 1)),
        np.concatenate((values[lower], values[upper])),
    )


class WindowAggregates:
    """Everything the compiled engine needs of a timeline, aggregated once.

    One pass over the command arrays keys every ACT and PRE by (window,
    bank, row) — window ``w`` holds the commands after the ``w``-th REF —
    and derives per window the ACT and PRE counts and the distinct
    activated rows, and per touched (window, bank) group the activated
    rows and counts, the hammer contributions to their non-activated
    neighbours, the pressed rows and the open-cycle contributions to
    their neighbours, and the activated-row sequence in command order.
    The per-window loop then only adds these to the banks' state.
    """

    def __init__(self, timeline: CommandTimeline, geometry: DramGeometry):
        self.geometry = geometry
        ops = timeline.ops
        num_banks = geometry.num_banks
        rows_per_bank = geometry.rows_per_bank
        is_ref = ops == OP_REF
        self.refs = int(is_ref.sum())
        #: Windows closed by a REF, plus a trailing partial one if commands follow the last REF.
        self.count = self.refs + int(len(timeline) > 0 and not is_ref[-1])
        window_of = np.cumsum(is_ref) - is_ref
        is_act = ops == OP_ACT
        is_pre = ops == OP_PRE
        self.acts = np.bincount(window_of[is_act], minlength=self.count)
        self.opens = np.bincount(window_of[is_pre], minlength=self.count)

        group_of = window_of * num_banks + timeline.banks
        cells = group_of * rows_per_bank + timeline.rows
        groups = np.unique(group_of[is_act | is_pre])
        self.group_banks = (groups % num_banks).tolist()
        self._window_bounds = np.searchsorted(
            groups // num_banks, np.arange(self.count + 1)
        ).tolist()

        acted, act_counts = np.unique(cells[is_act], return_counts=True)
        self.distinct_rows = np.bincount(
            acted // (rows_per_bank * num_banks), minlength=self.count
        )
        hammered, hammer_sums = _neighbour_sums(acted, act_counts, rows_per_bank)
        keep = ~np.isin(hammered, acted)
        pressed, open_sums = _sum_by_key(cells[is_pre], timeline.open_cycles[is_pre])
        press_victims, press_sums = _neighbour_sums(pressed, open_sums, rows_per_bank)
        positive = press_sums > 0
        self.acted = _KeyedSums(acted, act_counts, rows_per_bank, groups)
        self.hammered = _KeyedSums(
            hammered[keep], hammer_sums[keep], rows_per_bank, groups
        )
        self.pressed = _KeyedSums(pressed, open_sums, rows_per_bank, groups)
        self.press_victims = _KeyedSums(
            press_victims[positive], press_sums[positive], rows_per_bank, groups
        )

        act_groups = group_of[is_act]
        order = np.argsort(act_groups, kind="stable")
        self._act_rows = timeline.rows[is_act][order].tolist()
        self._act_spans = _group_spans(act_groups[order], groups)

    def freeze(self) -> "WindowAggregates":
        """Make every aggregate array read-only (for aggregates several runs share)."""
        sums = (self.acted, self.hammered, self.pressed, self.press_victims)
        for array in (self.acts, self.opens, self.distinct_rows,
                      *(part for keyed in sums for part in (keyed.rows, keyed.values))):
            array.flags.writeable = False
        return self

    def group_span(self, window_index: int) -> Tuple[int, int]:
        """``range`` bounds of the window's touched groups (banks ascending)."""
        return self._window_bounds[window_index], self._window_bounds[window_index + 1]

    def act_sequence(self, group: int) -> List[int]:
        """The group's activated rows in command order, repeats included."""
        start, stop = self._act_spans[group]
        return self._act_rows[start:stop]
