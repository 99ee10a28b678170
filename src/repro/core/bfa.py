"""Progressive bit search (the BFA algorithm of Rakin et al., Section VI-B).

The attack is an iterative two-stage search over the bits of the quantized
weight tensors:

* **Intra-layer stage** — within each layer, rank candidate bits by the
  first-order estimate of the loss increase a flip would cause
  (``dL/dw * delta_w``, where ``delta_w`` is the weight change implied by
  flipping that two's-complement bit) and keep the best candidate.
* **Inter-layer stage** — actually apply the best candidate of each of the
  most promising layers in turn, measure the realised loss on the attack
  batch, restore the bit, and commit the flip that produced the largest
  loss.

One bit is committed per iteration; the attack stops when the pluggable
:class:`~repro.core.objective.AttackObjective` declares itself satisfied —
the paper's untargeted objective stops at the random-guess accuracy level
(eqn. 1), targeted objectives at their attack-success-rate threshold — or
when the iteration/flip budget is exhausted.

The same engine serves both the unconstrained baseline (every bit of every
quantized tensor is a candidate) and the DRAM-profile-aware variant
(Algorithm 3), which restricts candidates to weight bits that map onto
profiled vulnerable cells and only allows flips in each cell's preferred
direction.  The restriction is expressed by :class:`CandidateSet`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.mapping import TensorCandidates
from repro.core.objective import AttackObjective
from repro.core.results import AttackEvent, AttackResult
from repro.nn import kernels
from repro.nn.bitops import (
    bit_flip_delta_column,
    bit_flip_delta_table,
    bit_flip_deltas_vector,
    from_twos_complement,
    to_twos_complement,
)
from repro.nn.inference import SuffixEvaluator, TrialFlip
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.nn.quantization import quantized_parameters
from repro.utils.validation import check_engine, check_positive, default_engine


@dataclass(frozen=True)
class BitSearchConfig:
    """Hyper-parameters of the progressive bit search.

    Attributes
    ----------
    max_flips:
        Upper bound on committed bit flips (= iterations, one flip each).
    top_k_layers:
        How many layers advance from the intra-layer stage to the
        (more expensive) inter-layer loss evaluation.  The original BFA
        evaluates every layer; bounding the number is an efficiency knob
        that matters for the deepest surrogates and preserves the search
        semantics because layers are pre-ranked by estimated loss gain.
    eval_batch_size:
        Batch size used when measuring evaluation accuracy.
    resample_attack_batch:
        Whether to draw a fresh attack batch from the objective's pool at
        the start of each iteration.  Once every sample of a fixed batch is
        confidently misclassified its gradients stop pointing anywhere
        useful; resampling keeps the intra-layer ranking informative.
    """

    max_flips: int = 150
    top_k_layers: int = 5
    eval_batch_size: int = 64
    resample_attack_batch: bool = True

    def __post_init__(self) -> None:
        check_positive("max_flips", self.max_flips)
        check_positive("top_k_layers", self.top_k_layers)
        check_positive("eval_batch_size", self.eval_batch_size)


class CandidateSet:
    """Which weight bits each tensor exposes to the search.

    ``candidates[name]`` is either ``None`` (every bit of the tensor is
    attackable — the unconstrained baseline) or a
    :class:`~repro.core.mapping.TensorCandidates` restriction.
    Tensors absent from the mapping are not attackable at all.
    """

    def __init__(self, candidates: Dict[str, Optional[TensorCandidates]]):
        self.candidates = dict(candidates)

    @classmethod
    def all_bits(cls, model: Module) -> "CandidateSet":
        """Unconstrained candidate set over every quantized tensor."""
        return cls({name: None for name in quantized_parameters(model)})

    @classmethod
    def from_tensor_candidates(cls, per_tensor: Dict[str, TensorCandidates]) -> "CandidateSet":
        """Profile-restricted candidate set (used by Algorithm 3)."""
        return cls(dict(per_tensor))

    def tensors(self) -> List[str]:
        """Names of tensors that expose at least one candidate."""
        return [
            name
            for name, candidates in self.candidates.items()
            if candidates is None or candidates.count > 0
        ]

    def total_candidates(self, model: Module) -> int:
        """Total number of candidate bits (unconstrained tensors count all bits)."""
        params = quantized_parameters(model)
        total = 0
        for name, candidates in self.candidates.items():
            if candidates is None:
                parameter = params.get(name)
                if parameter is not None:
                    total += parameter.size * parameter.num_bits
            else:
                total += candidates.count
        return total

    def __contains__(self, tensor_name: str) -> bool:
        return tensor_name in self.candidates

    def get(self, tensor_name: str) -> Optional[TensorCandidates]:
        """Restriction for one tensor (``None`` = every bit)."""
        return self.candidates[tensor_name]


@dataclass
class _Proposal:
    """Best candidate of one tensor during the intra-layer stage."""

    tensor_name: str
    weight_index: int
    bit_position: int
    int_before: int
    int_after: int
    estimated_gain: float


class BitFlipAttack:
    """Progressive bit search over a quantized model.

    ``engine`` selects the intra-layer proposer implementation:

    * ``"compiled"`` (the built-in default) — scores all (weight, bit)
      pairs of a tensor with one broadcasted ``grad * delta * scale`` over
      a cached ``(num_bits, size)`` flip-delta table and a single flat
      argmax.  The table depends only on the stored bit patterns, so it
      survives across attack iterations and only the one column of a
      flipped weight is ever recomputed.
    * ``"reference"`` — the original per-bit Python loop, retained for the
      golden-equivalence tests and the perf benchmarks.  Both engines
      produce bit-identical proposals (same tie-breaking, same IEEE float
      operations).

    The tier picks the algorithm; the kernel registry
    (:mod:`repro.nn.kernels`) picks the kernels.  :meth:`run` pins the
    NumPy kernels for a ``"reference"`` attack, whatever the process-wide
    choice, and runs a ``"compiled"`` attack on whichever kernels the
    enclosing scope chose: the C kernels by default, the NumPy ones under
    ``kernels.use("none")`` or ``REPRO_KERNEL_BACKEND=none``.  Every
    kernel reproduces the reference bit for bit, so results are identical
    on every (tier, kernels) pair.

    The engine selector also picks the *evaluation* path.  With
    ``"compiled"`` and a stage-decomposable model, candidate and
    convergence evaluations run through an incremental
    :class:`~repro.nn.inference.SuffixEvaluator` (no-grad suffix
    re-execution from the flipped layer); ``"reference"`` keeps the
    retained full-forward evaluation.  Outputs are bit-identical either
    way.

    ``engine=None`` resolves to the process default
    (:func:`repro.utils.validation.default_engine`), which honours the
    ``REPRO_DEFAULT_ENGINE`` environment variable.
    """

    def __init__(
        self,
        model: Module,
        objective: AttackObjective,
        candidates: Optional[CandidateSet] = None,
        config: Optional[BitSearchConfig] = None,
        model_name: str = "model",
        mechanism: str = "unconstrained",
        engine: Optional[str] = None,
    ):
        engine = default_engine() if engine is None else engine
        check_engine(engine)
        self.model = model
        self.objective = objective
        self.config = config or BitSearchConfig()
        self.model_name = model_name
        self.mechanism = mechanism
        self.engine = engine
        self.parameters = quantized_parameters(model)
        if not self.parameters:
            raise ValueError("model must be quantized before attacking (call quantize_model)")
        self.candidates = candidates or CandidateSet.all_bits(model)
        unknown = [name for name in self.candidates.candidates if name not in self.parameters]
        if unknown:
            raise KeyError(f"candidate set references unknown tensors: {unknown}")
        #: Per-tensor (num_bits, size) flip-delta tables for the compiled
        #: proposer, keyed by tensor name.  Invalidation contract: every
        #: int_repr mutation goes through _apply/_revert, which refresh
        #: exactly the flipped weight's column.
        self._delta_tables: Dict[str, np.ndarray] = {}
        self._delta_tables_f64: Dict[str, np.ndarray] = {}
        self._gain_buffers: Dict[str, np.ndarray] = {}
        #: Incremental evaluation engine (compiled tier): caches
        #: per-batch stage-boundary activations so candidate evaluations
        #: re-run only the flipped layer's suffix.  Built when the model is
        #: stage-decomposable and every quantized tensor maps to a stage.
        #: The attack is its only owner and passes it to every objective
        #: call: ``run`` clears it on entry (weights may have changed out of
        #: band since the last run), committed flips invalidate it at their
        #: stage, a resampled attack batch drops its entry, and trial flips
        #: are evaluated through its non-destructive peek path.  The
        #: reference engine keeps the retained full-forward evaluation.
        self._evaluator: Optional[SuffixEvaluator] = None
        self._stage_of_tensor: Dict[str, int] = {}
        if engine != "reference":
            evaluator = SuffixEvaluator(model)
            if evaluator.covers(self.parameters.values()):
                self._evaluator = evaluator
                self._stage_of_tensor = {
                    name: evaluator.stage_of(parameter)
                    for name, parameter in self.parameters.items()
                }

    def _delta_table(self, tensor_name: str, parameter: Parameter) -> np.ndarray:
        table = self._delta_tables.get(tensor_name)
        if table is None:
            table = bit_flip_delta_table(
                parameter.int_repr.ravel(), parameter.num_bits, validate=False
            )
            self._delta_tables[tensor_name] = table
            # Float64 shadow of the int64 table: every delta fits exactly in
            # a double, so ``grad * delta`` computes the identical product —
            # caching the cast saves one full-size conversion pass (and its
            # temporary) per proposal round.  ``gains`` is the reusable
            # output buffer of the same shape.
            self._delta_tables_f64[tensor_name] = table.astype(np.float64)
            self._gain_buffers[tensor_name] = np.empty(table.shape)
        return table

    def _refresh_delta_column(self, tensor_name: str, weight_index: int) -> None:
        table = self._delta_tables.get(tensor_name)
        if table is None:
            return
        parameter = self.parameters[tensor_name]
        value = parameter.int_repr.flat[weight_index]
        table[:, weight_index] = bit_flip_delta_column(value, parameter.num_bits)
        self._delta_tables_f64[tensor_name][:, weight_index] = table[:, weight_index]

    # ------------------------------------------------------------------
    # Intra-layer stage
    # ------------------------------------------------------------------
    def _propose_for_tensor(self, tensor_name: str) -> Optional[_Proposal]:
        parameter = self.parameters[tensor_name]
        restriction = self.candidates.get(tensor_name)
        grad = parameter.grad_array().ravel()
        ints = parameter.int_repr.ravel()
        num_bits = parameter.num_bits
        scale = parameter.scale

        if restriction is None:
            if self.engine == "reference":
                return self._propose_unconstrained_reference(
                    tensor_name, parameter, grad, ints, num_bits, scale
                )
            return self._propose_unconstrained(tensor_name, parameter, grad, ints, num_bits, scale)
        return self._propose_restricted(tensor_name, parameter, restriction, grad, ints, num_bits, scale)

    def _propose_unconstrained(
        self,
        tensor_name: str,
        parameter: Parameter,
        grad: np.ndarray,
        ints: np.ndarray,
        num_bits: int,
        scale: float,
    ) -> Optional[_Proposal]:
        deltas = self._delta_table(tensor_name, parameter)
        # Elementwise (grad[i] * delta) * scale — the exact float operations
        # of the loop reference, just broadcast over all bits at once.  The
        # (num_bits, size) layout makes the flat argmax resolve ties by
        # lowest bit first, then lowest weight index, like the reference.
        # The cached float64 table and the preallocated output buffer keep
        # the two multiplies temp-free; the products are bit-identical
        # because int64 -> float64 conversion of the deltas is exact.
        gains = self._gain_buffers[tensor_name]
        np.multiply(grad[None, :], self._delta_tables_f64[tensor_name], out=gains)
        np.multiply(gains, scale, out=gains)
        flat = int(np.argmax(gains))
        bit, index = divmod(flat, ints.size)
        return _Proposal(
            tensor_name=tensor_name,
            weight_index=index,
            bit_position=bit,
            int_before=int(ints[index]),
            int_after=int(ints[index] + deltas[bit, index]),
            estimated_gain=float(gains[bit, index]),
        )

    def _propose_unconstrained_reference(
        self,
        tensor_name: str,
        parameter: Parameter,
        grad: np.ndarray,
        ints: np.ndarray,
        num_bits: int,
        scale: float,
    ) -> Optional[_Proposal]:
        best: Optional[_Proposal] = None
        for bit in range(num_bits):
            deltas = bit_flip_deltas_vector(ints, bit, num_bits)
            gains = grad * deltas * scale
            index = int(np.argmax(gains))
            gain = float(gains[index])
            if best is None or gain > best.estimated_gain:
                best = _Proposal(
                    tensor_name=tensor_name,
                    weight_index=index,
                    bit_position=bit,
                    int_before=int(ints[index]),
                    int_after=int(ints[index] + deltas[index]),
                    estimated_gain=gain,
                )
        return best

    def _propose_restricted(
        self,
        tensor_name: str,
        parameter: Parameter,
        restriction: TensorCandidates,
        grad: np.ndarray,
        ints: np.ndarray,
        num_bits: int,
        scale: float,
    ) -> Optional[_Proposal]:
        if restriction.count == 0:
            return None
        weight_indices = restriction.weight_indices
        bit_positions = restriction.bit_positions
        directions = restriction.directions

        current_ints = ints[weight_indices]
        patterns = to_twos_complement(current_ints, num_bits, validate=False)
        current_bits = (patterns >> bit_positions) & 1
        # A profiled cell flips 1 -> 0 (direction 1) only if the stored bit is
        # currently 1, and 0 -> 1 (direction 0) only if it is currently 0.
        feasible = current_bits == directions
        if not feasible.any():
            return None

        flipped_patterns = patterns ^ (np.int64(1) << bit_positions)
        new_ints = from_twos_complement(flipped_patterns, num_bits, validate=False)
        deltas = new_ints - current_ints
        gains = grad[weight_indices] * deltas * scale
        gains = np.where(feasible, gains, -np.inf)
        index = int(np.argmax(gains))
        return _Proposal(
            tensor_name=tensor_name,
            weight_index=int(weight_indices[index]),
            bit_position=int(bit_positions[index]),
            int_before=int(current_ints[index]),
            int_after=int(new_ints[index]),
            estimated_gain=float(gains[index]),
        )

    # ------------------------------------------------------------------
    # Flip application
    # ------------------------------------------------------------------
    def _apply(self, proposal: _Proposal) -> None:
        parameter = self.parameters[proposal.tensor_name]
        parameter.int_repr.flat[proposal.weight_index] = proposal.int_after
        parameter.sync_from_int()
        self._refresh_delta_column(proposal.tensor_name, proposal.weight_index)

    def _revert(self, proposal: _Proposal) -> None:
        parameter = self.parameters[proposal.tensor_name]
        parameter.int_repr.flat[proposal.weight_index] = proposal.int_before
        parameter.sync_from_int()
        self._refresh_delta_column(proposal.tensor_name, proposal.weight_index)

    # ------------------------------------------------------------------
    # Inter-layer stage: realised-loss scoring of the shortlist
    # ------------------------------------------------------------------
    def _score_shortlist(
        self, objective: AttackObjective, shortlist: List[_Proposal]
    ) -> List[float]:
        """Realised loss of every shortlisted proposal, in shortlist order.

        With the incremental engine the proposals become
        :class:`~repro.nn.inference.TrialFlip` descriptors grouped by their
        forward stage and scored through the objective's batched
        :meth:`~repro.core.objective.AttackObjective.attack_losses` path —
        each flipped stage runs per trial, every shared downstream suffix
        stage runs once on the stacked trials.  Without the engine (the
        ``"reference"`` path, or a model without a stage decomposition) the
        retained apply → evaluate → revert loop runs one trial at a time.
        Both paths produce bit-identical losses, so the winner (strict
        ``>`` comparison in shortlist order) is identical either way.
        """
        if self._evaluator is not None:
            trials = [
                TrialFlip(
                    stage=self._stage_of_tensor[proposal.tensor_name],
                    apply=partial(self._apply, proposal),
                    revert=partial(self._revert, proposal),
                )
                for proposal in shortlist
            ]
            return objective.attack_losses(trials, self._evaluator)
        losses = []
        for proposal in shortlist:
            self._apply(proposal)
            try:
                losses.append(objective.attack_loss(self.model))
            finally:
                self._revert(proposal)
        return losses

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def kernel_scope(self):
        """Context manager fixing this attack's kernels.

        ``engine="reference"`` pins the NumPy kernels, so the oracle stays
        NumPy all the way down; ``engine="compiled"`` holds the enclosing
        choice (a ``kernels.use`` scope, else ``REPRO_KERNEL_BACKEND``).
        :meth:`run` enters this automatically; callers driving internal
        stages directly (the perf harness times ``_propose_for_tensor``
        standalone) wrap them in it to measure the kernels ``run`` uses.
        """
        return kernels.use("none") if self.engine == "reference" else kernels.hold()

    def run(self) -> AttackResult:
        """Execute the attack until the objective is met or budgets run out.

        The loop is objective-agnostic: it asks the objective for its loss
        gradients (intra-layer ranking), realised losses (inter-layer
        comparison) and :class:`~repro.core.objective.ObjectiveMetrics`
        (convergence), so targeted and stealthy objectives run on the same
        vectorized delta-table fast path as the paper's untargeted one.

        With the compiled engine the attack passes its incremental
        :class:`~repro.nn.inference.SuffixEvaluator` to every objective
        call: the gradient pass records stage-boundary activations, the whole
        inter-layer shortlist is scored in one batched ``peek_many``
        cascade per evaluation batch (flipped stages run per trial, shared
        downstream stages run once on the stacked trials; reverting
        restores cache validity), and committed flips invalidate the cache
        at their stage before the convergence measurement, whose
        evaluation batches run as one stacked suffix via ``forward_many``.
        All of it is bit-identical to the retained ``engine="reference"``
        full-forward path (golden tests pin this per objective kind and
        victim precision).
        """
        if self._evaluator is not None:
            # Weights may have changed since construction or a prior run.
            self._evaluator.clear()
        # The search only ever reads the gradients of the quantized weight
        # tensors; turning accumulation off everywhere else (biases, norm
        # affine parameters) skips their weight-gradient work in the
        # backward pass without changing any gradient the attack consumes.
        # Both engines share the gradient pass, so equivalence is untouched.
        attacked = {id(parameter) for parameter in self.parameters.values()}
        spectators = [
            parameter
            for parameter in self.model.parameters()
            if id(parameter) not in attacked and parameter.requires_grad
        ]
        for parameter in spectators:
            parameter.requires_grad = False
        try:
            with self.kernel_scope():
                return self._run_loop()
        finally:
            for parameter in spectators:
                parameter.requires_grad = True

    def _run_loop(self) -> AttackResult:
        """The attack iteration proper (:meth:`run` clears the evaluator,
        freezes spectator gradients and pins the kernels)."""
        config = self.config
        objective = self.objective
        evaluator = self._evaluator
        metrics = objective.evaluate(self.model, config.eval_batch_size, evaluator)
        accuracy_before = metrics.accuracy
        accuracy_curve = [accuracy_before]
        # ASR is tracked only for objectives that define one (targeted
        # kinds); ``None`` from the objective means "not applicable".
        asr_curve: List[float] = (
            [] if metrics.attack_success_rate is None else [metrics.attack_success_rate]
        )
        loss_curve: List[float] = []
        events: List[AttackEvent] = []
        converged = objective.is_satisfied(metrics)
        # The candidate set never changes during a run; building the tensor
        # list once keeps the per-iteration cost at proposing + evaluating.
        tensor_names = self.candidates.tensors()

        while not converged and len(events) < config.max_flips:
            if config.resample_attack_batch and len(events) > 0:
                if objective.resample_attack_batch() and evaluator is not None:
                    evaluator.drop("attack")
            loss_value = objective.attack_loss_and_gradients(self.model, evaluator)
            loss_curve.append(loss_value)

            proposals: List[_Proposal] = []
            for tensor_name in tensor_names:
                proposal = self._propose_for_tensor(tensor_name)
                if proposal is not None and np.isfinite(proposal.estimated_gain):
                    proposals.append(proposal)
            if not proposals:
                break

            proposals.sort(key=lambda p: p.estimated_gain, reverse=True)
            shortlist = proposals[: config.top_k_layers]

            trial_losses = self._score_shortlist(objective, shortlist)
            best_proposal: Optional[_Proposal] = None
            best_loss = -np.inf
            for proposal, trial_loss in zip(shortlist, trial_losses):
                if trial_loss > best_loss:
                    best_loss = trial_loss
                    best_proposal = proposal

            assert best_proposal is not None
            self._apply(best_proposal)
            if evaluator is not None:
                evaluator.invalidate_from(self._stage_of_tensor[best_proposal.tensor_name])
            metrics = objective.evaluate(self.model, config.eval_batch_size, evaluator)
            accuracy_curve.append(metrics.accuracy)
            if metrics.attack_success_rate is not None:
                asr_curve.append(metrics.attack_success_rate)
            events.append(
                AttackEvent(
                    iteration=len(events),
                    tensor_name=best_proposal.tensor_name,
                    weight_index=best_proposal.weight_index,
                    bit_position=best_proposal.bit_position,
                    int_before=best_proposal.int_before,
                    int_after=best_proposal.int_after,
                    loss_after=best_loss,
                    accuracy_after=metrics.accuracy,
                )
            )
            converged = objective.is_satisfied(metrics)

        return AttackResult(
            model_name=self.model_name,
            mechanism=self.mechanism,
            accuracy_before=accuracy_before,
            accuracy_after=accuracy_curve[-1],
            target_accuracy=objective.target_accuracy,
            num_flips=len(events),
            converged=converged,
            events=events,
            accuracy_curve=accuracy_curve,
            loss_curve=loss_curve,
            candidate_bits=self.candidates.total_candidates(self.model),
            objective_kind=objective.kind or "untargeted",
            attack_success_rate=asr_curve[-1] if asr_curve else None,
            asr_curve=asr_curve,
        )
