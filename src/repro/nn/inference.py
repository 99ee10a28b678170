"""Incremental no-grad inference: suffix re-execution over cached prefixes.

The progressive bit search evaluates the victim after every candidate flip,
and a flip perturbs exactly one weight tensor in one forward stage — every
activation *upstream* of that stage is unchanged.  For stage-decomposable
models (:meth:`repro.nn.module.Module.forward_stages`) this module turns
that structure into work saved: a :class:`SuffixEvaluator` checkpoints the
activation at every stage boundary per evaluation batch and re-runs only
the suffix of the network that a flip can actually affect.

All suffix re-executions run under :class:`repro.nn.autograd.no_grad`, so
pure evaluation allocates no parents or backward closures.  Because a
resumed pass feeds the *same float64 arrays* through the *same operations
in the same order* as a full forward, its outputs are bit-identical to the
full pass — the property the golden-equivalence tests pin against
``engine="reference"``.

The evaluator itself is kernel-agnostic: every stage runs through the op
layer (:mod:`repro.nn.functional`, the norm layers), which dispatches to
:mod:`repro.nn.kernels` when its C kernels are active.  The suffix
cascade is the hot loop those kernels accelerate — each ``peek_many`` call
is dominated by conv forwards and folded inference batch-norms, and the
no-grad context additionally enables the per-thread im2col scratch reuse
(:func:`repro.nn.kernels.scratch_buffer`).  Bit-identity of the compiled
kernels (enforced by :func:`repro.nn.kernels.warmup` self-validation)
keeps the cached boundary activations interchangeable across backends.

Cache-consistency contract (mirrors the PR-2 flip-delta-table contract):

* **Committed** weight mutations must be followed by
  :meth:`SuffixEvaluator.invalidate_from` with the mutated stage — every
  cached boundary downstream of the stage is dropped for every batch.
* **Trial** mutations (apply → evaluate → revert) must be evaluated with
  :meth:`SuffixEvaluator.peek`, which reads the cached prefix up to the
  flipped stage but never writes a boundary the trial flip could have
  influenced — so reverting the flip restores cache validity for free.
  :meth:`SuffixEvaluator.peek_many` extends the same guarantee to a whole
  set of :class:`TrialFlip` candidates, running each flipped stage
  per-trial but every shared downstream stage once on the trials stacked
  along the batch axis.
* Code that mutates weights behind the evaluator's back must call
  :meth:`SuffixEvaluator.clear` (or build a fresh evaluator).

:class:`repro.core.bfa.BitFlipAttack` owns this wiring for the attack loop;
the evaluator itself is model-level machinery with no attack knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence

import numpy as np

from repro.nn import kernels
from repro.nn.autograd import Tensor, no_grad
from repro.nn.module import ForwardStage, Module
from repro.nn.parameter import Parameter


@dataclass(frozen=True)
class TrialFlip:
    """One candidate weight mutation to be scored by :meth:`SuffixEvaluator.peek_many`.

    Attributes
    ----------
    stage:
        Index of the forward stage consuming the mutated weight — the first
        stage whose output the flip can affect.
    apply / revert:
        Callables installing and removing the mutation.  The evaluator
        applies a trial only around the runs of its own flipped stage, so
        every other trial (and the cached clean prefix) always sees clean
        weights.  ``apply`` followed by ``revert`` must restore weights
        bit-exactly.
    """

    stage: int
    apply: Callable[[], None]
    revert: Callable[[], None]


class SuffixEvaluator:
    """Evaluate a stage-decomposed model incrementally across weight flips.

    The evaluator keeps, per evaluation batch (identified by a hashable
    ``key``), the list of stage-boundary activations ``boundaries[i]`` =
    input of stage ``i`` (``boundaries[0]`` is the batch itself, the final
    entry after a completed pass is the model output).  A valid prefix of
    that list survives any weight change strictly downstream of it, which
    is what makes :meth:`forward` after :meth:`invalidate_from` cost only
    the suffix from the flipped stage.
    """

    def __init__(self, model: Module):
        self.model = model
        self._stages: Optional[List[ForwardStage]] = model.forward_stages()
        self._caches: Dict[Hashable, List[np.ndarray]] = {}
        #: Memoized ``id(parameter) -> stage index`` map, built lazily on the
        #: first :meth:`stage_of` / :meth:`covers` call so constructing an
        #: evaluator costs nothing until stage lookups are actually needed.
        self._stage_of_parameter: Optional[Dict[int, int]] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def supported(self) -> bool:
        """Whether the model exposes a usable stage decomposition."""
        return bool(self._stages)

    @property
    def num_stages(self) -> int:
        """Number of forward stages (0 when unsupported)."""
        return len(self._stages) if self._stages else 0

    def _stage_map(self) -> Dict[int, int]:
        """The memoized ``id(parameter) -> stage`` dict (built on first use)."""
        if self._stage_of_parameter is None:
            mapping: Dict[int, int] = {}
            for index, stage in enumerate(self._stages or ()):
                for module in stage.modules:
                    for _, parameter in module.named_parameters():
                        mapping[id(parameter)] = index
            self._stage_of_parameter = mapping
        return self._stage_of_parameter

    def stage_of(self, parameter: Parameter) -> Optional[int]:
        """Index of the stage consuming ``parameter`` (``None`` if unmapped)."""
        return self._stage_map().get(id(parameter))

    def covers(self, parameters: Iterable[Parameter]) -> bool:
        """Whether every given parameter belongs to a known stage."""
        if not self.supported:
            return False
        mapping = self._stage_map()
        return all(id(parameter) in mapping for parameter in parameters)

    # ------------------------------------------------------------------
    # Evaluation paths
    # ------------------------------------------------------------------
    def forward(self, key: Hashable, x: np.ndarray) -> np.ndarray:
        """Cached no-grad forward of batch ``key``; returns the output array.

        Only the stages past the last valid cached boundary are executed;
        the newly computed boundaries are stored, so a subsequent call after
        :meth:`invalidate_from` re-runs exactly the invalidated suffix.
        """
        self._require_supported()
        entry = self._entry(key, x)
        start = len(entry) - 1
        if start == self.num_stages:
            return entry[-1]
        with no_grad():
            act = Tensor(entry[start])
            for stage in self._stages[start:]:
                act = stage.run(act)
                entry.append(act.data)
        return entry[-1]

    def forward_many(
        self, items: Sequence[tuple]
    ) -> List[np.ndarray]:
        """Cached no-grad forwards of several ``(key, x)`` batches at once.

        Equivalent to calling :meth:`forward` per item — every batch's
        missing suffix is computed and its stage boundaries stored — but
        batches that resume from the same depth are stacked along the
        leading batch axis so each shared stage executes once for all of
        them.  Batches with deeper valid prefixes join the stack at their
        own resume stage.  Per-batch outputs (and stored boundaries) are
        bit-identical to the sequential calls because every model operation
        is per-sample independent along the batch axis.

        This is the committed-flip evaluation fast path: after
        :meth:`invalidate_from`, every evaluation batch resumes from the
        same stage, so a full evaluation-set pass costs one stacked suffix
        execution instead of one per batch.
        """
        self._require_supported()
        keys = [key for key, _ in items]
        if len(set(keys)) != len(keys):
            # Two pending items sharing a key would append their per-stage
            # slices to the same boundary list, silently corrupting it.
            raise ValueError("forward_many requires distinct batch keys")
        outputs: List[Optional[np.ndarray]] = [None] * len(items)
        by_resume: Dict[int, List[tuple]] = {}
        for position, (key, x) in enumerate(items):
            entry = self._entry(key, x)
            resume = len(entry) - 1
            if resume == self.num_stages:
                outputs[position] = entry[-1]
            else:
                by_resume.setdefault(resume, []).append((position, entry))
        if not by_resume:
            return outputs
        live: Optional[np.ndarray] = None
        members: List[tuple] = []
        with no_grad():
            for stage_index in range(min(by_resume), self.num_stages):
                joining = by_resume.get(stage_index, ())
                if joining:
                    blocks = [entry[stage_index] for _, entry in joining]
                    members.extend(
                        (position, entry, entry[stage_index].shape[0])
                        for position, entry in joining
                    )
                    if live is None and len(blocks) == 1:
                        live = blocks[0]
                    else:
                        stacked = blocks if live is None else [live, *blocks]
                        live = np.concatenate(stacked, axis=0)
                live = self._stages[stage_index].run(Tensor(live)).data
                offset = 0
                for _, entry, rows in members:
                    entry.append(live[offset : offset + rows])
                    offset += rows
        for position, entry, _ in members:
            outputs[position] = entry[-1]
        return outputs

    def forward_tensor(self, key: Hashable, x: Tensor) -> Tensor:
        """Graph-recording full forward that (re)populates the boundary cache.

        Used for the gradient pass of the bit search: the pass must build
        the complete graph anyway, and recording the boundary *data* along
        the way makes the subsequent trial-flip evaluations of the same
        batch start from a warm cache at no extra forward cost.
        """
        self._require_supported()
        x = x if isinstance(x, Tensor) else Tensor(x)
        entry = [x.data]
        self._caches[key] = entry
        act = x
        for stage in self._stages:
            act = stage.run(act)
            entry.append(act.data)
        return act

    def peek(self, key: Hashable, x: np.ndarray, from_stage: int = 0) -> np.ndarray:
        """Output of batch ``key`` under a *trial* flip at stage ``from_stage``.

        Resumes from the deepest cached boundary not past ``from_stage``
        and recomputes the rest without storing any boundary downstream of
        the flip — the cache therefore still describes the pre-trial
        weights, which become current again when the trial is reverted.
        Boundaries at or upstream of ``from_stage`` are unaffected by the
        flip and may be filled in on the way.
        """
        self._require_supported()
        entry = self._entry(key, x)
        start = min(from_stage, len(entry) - 1)
        act = Tensor(entry[start])
        with no_grad():
            for index in range(start, self.num_stages):
                act = self._stages[index].run(act)
                if index + 1 <= from_stage and len(entry) == index + 1:
                    entry.append(act.data)
        return act.data

    def peek_many(
        self, key: Hashable, x: np.ndarray, trials: Sequence[TrialFlip]
    ) -> List[np.ndarray]:
        """Outputs of batch ``key`` under B independent *trial* flips, batched.

        Each :class:`TrialFlip` is scored exactly as B sequential
        :meth:`peek` calls would score it — apply, evaluate from the flipped
        stage, revert — but the work is batched per stage: a trial's
        *flipped* stage must run on its own weights (one run per trial,
        applied/reverted around it), while every stage *downstream* of a
        flip runs clean weights for all trials, so those suffix stages
        execute **once** on the trials stacked along the leading batch axis.
        Trials join the stack in ascending stage order; a group of trials
        sharing a stage joins together.

        Per-trial results are bit-identical to sequential :meth:`peek`
        because every operation of the model zoo is per-sample independent
        along the batch axis and the stacked pass feeds each trial's rows
        through the same float64 operations in the same order (the golden
        tests pin this).  Like :meth:`peek`, the call never stores a
        boundary a flip could have influenced: only the *clean* prefix up
        to the deepest flipped stage is (re)used and filled in, so
        reverting the trials leaves the cache valid.
        """
        self._require_supported()
        if not trials:
            return []
        for trial in trials:
            if not 0 <= trial.stage < self.num_stages:
                raise IndexError(
                    f"trial stage must be within [0, {self.num_stages}), got {trial.stage}"
                )
        entry = self._entry(key, x)
        max_stage = max(trial.stage for trial in trials)
        min_stage = min(trial.stage for trial in trials)
        results: List[Optional[np.ndarray]] = [None] * len(trials)
        #: Trials grouped by flipped stage, preserving the caller's order
        #: within each group (stacking order never affects per-trial values).
        groups: Dict[int, List[int]] = {}
        for position, trial in enumerate(trials):
            groups.setdefault(trial.stage, []).append(position)
        live: Optional[np.ndarray] = None
        live_order: List[int] = []
        live_rows: List[int] = []
        with no_grad():
            # Fill the clean prefix up to the deepest flipped stage before
            # any trial is applied — the same boundaries sequential peeks
            # would have recorded (a flip cannot influence its stage input).
            while len(entry) - 1 < max_stage:
                index = len(entry) - 1
                entry.append(self._stages[index].run(Tensor(entry[index])).data)
            for stage_index in range(min_stage, self.num_stages):
                stage = self._stages[stage_index]
                if live is not None:
                    live = stage.run(Tensor(live)).data
                joining = groups.get(stage_index)
                if joining:
                    prefix = Tensor(entry[stage_index])
                    blocks = []
                    # Every run in this group forwards the same prefix
                    # array through the stage — only the flipped weights
                    # differ — so conv columns are shared across trials
                    # (a no-op on the NumPy kernels).
                    with kernels.im2col_memo():
                        for position in joining:
                            trial = trials[position]
                            trial.apply()
                            try:
                                blocks.append(stage.run(prefix).data)
                            finally:
                                trial.revert()
                    live_order.extend(joining)
                    live_rows.extend(block.shape[0] for block in blocks)
                    if live is None and len(blocks) == 1:
                        live = blocks[0]
                    else:
                        stacked = blocks if live is None else [live, *blocks]
                        live = np.concatenate(stacked, axis=0)
        offset = 0
        for position, rows in zip(live_order, live_rows):
            results[position] = live[offset : offset + rows]
            offset += rows
        return results

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_from(self, stage_index: int) -> None:
        """Drop every cached boundary downstream of ``stage_index``.

        Must be called after a *committed* weight mutation in that stage.
        The boundary at ``stage_index`` itself (the stage's input) is kept —
        a weight of a stage can only influence the stage's output.
        """
        if not 0 <= stage_index < self.num_stages:
            raise IndexError(
                f"stage_index must be within [0, {self.num_stages}), got {stage_index}"
            )
        for entry in self._caches.values():
            del entry[stage_index + 1 :]

    def drop(self, key: Hashable) -> None:
        """Forget one batch entirely (e.g. after the attack batch resamples)."""
        self._caches.pop(key, None)

    def clear(self) -> None:
        """Forget every cached boundary (weights changed out of band)."""
        self._caches.clear()

    # ------------------------------------------------------------------
    def _entry(self, key: Hashable, x: np.ndarray) -> List[np.ndarray]:
        """The boundary list of batch ``key``, started (or restarted) at ``x``.

        A cached entry whose stored batch no longer matches ``x`` — a key
        reused for a different batch shape — is discarded rather than
        silently answered from, so a stale hit can never return logits for
        the wrong data.
        """
        entry = self._caches.get(key)
        if entry is None or entry[0].shape != np.shape(x):
            entry = [np.asarray(x, dtype=np.float64)]
            self._caches[key] = entry
        return entry

    def _require_supported(self) -> None:
        if not self.supported:
            raise RuntimeError(
                f"{type(self.model).__name__} does not expose forward stages; "
                "check SuffixEvaluator.supported before evaluating"
            )
