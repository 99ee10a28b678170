"""Pluggable attack objectives: what the bit-flip search tries to achieve.

Equation 1 of the paper maximises the cross-entropy loss on an attack batch
subject to a budget on the number of flipped bits; operationally (Section
VI-A and VII-B) the attack stops once the model's accuracy has fallen to the
random-guess level ``100 / #classes`` %.  That untargeted objective is one
point in a family: the same profile-aware search (Algorithm 3) applies
unchanged to *targeted* misclassification (drive one class into another) and
to *stealthy* targeted attacks (targeted flips with a bounded collateral
accuracy drop), because the search only ever interacts with the objective
through a narrow protocol.

:class:`AttackObjective` is that protocol.  A concrete objective bundles

* the **attack batch** (and, for a stealth term, a **clean batch**) whose
  logits the loss scores,
* the **evaluation set** on which progress is measured, and
* the **stopping criterion** deciding when the attack has succeeded.

A kind never runs the model: it names the batches it needs
(:meth:`~AttackObjective.batch_names`), turns their logits into the scalar
the search ascends (:meth:`~AttackObjective.loss`) and turns evaluation-set
predictions into :class:`ObjectiveMetrics` (:meth:`~AttackObjective.metrics`).
The base class produces those logits and predictions — by full forwards, or
through a :class:`~repro.nn.inference.SuffixEvaluator` the caller passes in.
The progressive bit search (:class:`repro.core.bfa.BitFlipAttack`) calls
:meth:`~AttackObjective.attack_loss_and_gradients` and
:meth:`~AttackObjective.attack_losses` (or :meth:`~AttackObjective.attack_loss`
per trial on the reference path) to rank candidate flips and
:meth:`~AttackObjective.evaluate` / :meth:`~AttackObjective.is_satisfied` to
decide convergence — nothing else.  Adding a new scenario therefore means
implementing one subclass and registering it with
:func:`register_objective`; every engine (vectorized, ``"reference"`` and
the ``"compiled"`` kernel tier), every runner backend and the declarative
experiment layer pick it up unmodified.

Concrete objectives
-------------------
:class:`UntargetedDegradation`
    The paper's objective: degrade overall accuracy to the random-guess
    level (this class is the pre-refactor ``AttackObjective`` behaviour,
    bit-for-bit).
:class:`TargetedMisclassification`
    Drive samples of a chosen ``source_class`` to a chosen ``target_class``,
    measured by the attack-success-rate (ASR) next to the overall accuracy.
:class:`StealthyTargeted`
    Targeted misclassification with a bounded clean-accuracy drop: the loss
    trades the targeted term against collateral damage and the stopping
    criterion additionally requires the overall accuracy to stay within
    ``max_clean_accuracy_drop`` points of the pre-attack baseline.

The declarative layer describes objectives with :class:`ObjectiveConfig`
(kind + parameters, JSON round-trippable), mirroring how
:class:`repro.experiments.DefenseConfig` describes mitigations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple, Type

import numpy as np

from repro.nn import kernels
from repro.nn.autograd import Tensor, no_grad
from repro.nn.data import Dataset
from repro.nn.inference import SuffixEvaluator, TrialFlip
from repro.nn.loss import cross_entropy
from repro.nn.module import Module
from repro.utils.rng import derive_rng
from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class ObjectiveMetrics:
    """What one evaluation pass of an objective observed on the model.

    Attributes
    ----------
    accuracy:
        Overall top-1 accuracy (%) on the objective's evaluation set.
    attack_success_rate:
        Targeted objectives report the fraction (%) of source-class
        evaluation samples classified as the target class.  ``None`` means
        the objective has no ASR notion (untargeted); ``nan`` means the ASR
        is undefined because the evaluation set contains no source-class
        samples (reports render it as ``-``).
    clean_accuracy_drop:
        Accuracy lost (percentage points) on the *non-source* evaluation
        samples relative to the pre-attack baseline; only
        stealth-constrained objectives populate it.
    """

    accuracy: float
    attack_success_rate: Optional[float] = None
    clean_accuracy_drop: Optional[float] = None


class AttackObjective:
    """Protocol between the progressive bit search and an attack goal.

    Concrete objectives are dataclasses carrying ``attack_x`` / ``attack_y``
    (the attacker's gradient batch), ``eval_x`` / ``eval_y`` (the progress
    measurement set) and optionally a resampling pool.  A kind only scores
    logits; this base class is the one place that turns a model into
    logits, and it owns loss/gradient evaluation, the evaluation pass and
    attack-batch resampling.  Subclasses define

    * :meth:`batch_names` — the named batches :meth:`loss` reads
      (``"attack"``, plus ``"clean"`` for a stealth term);
    * :meth:`loss` — the differentiable scalar the search *maximises*,
      computed from the logits of those batches (the intra-layer stage
      ranks candidate flips by its gradient, the inter-layer stage by its
      realised value);
    * :meth:`metrics` — the :class:`ObjectiveMetrics` of the evaluation-set
      predictions;
    * :meth:`is_satisfied` — whether observed metrics meet the goal;
    * :meth:`describe` — a human-readable summary for reports.

    The model-facing methods take an ``evaluator``: ``None`` runs plain
    full forwards (the reference path), a
    :class:`~repro.nn.inference.SuffixEvaluator` runs the same batches
    through its boundary cache, bit-identically (:meth:`attack_losses`,
    the batched trial path, always needs one).  The caller owns the
    evaluator and its cache consistency (:class:`repro.core.bfa.BitFlipAttack`
    clears it per run and invalidates it on every committed flip).
    """

    #: Registry discriminator (``"untargeted"``, ``"targeted"``, ...).
    kind: ClassVar[str] = ""
    #: Parameter names a declarative :class:`ObjectiveConfig` may set for
    #: this kind (everything else ``from_dataset`` takes — dataset, batch
    #: sizes, seed — is owned by the experiment config).
    spec_params: ClassVar[frozenset] = frozenset()
    #: Subset of :attr:`spec_params` that must be present.
    required_spec_params: ClassVar[frozenset] = frozenset()

    # -- subclass interface --------------------------------------------
    def batch_names(self) -> Tuple[str, ...]:
        """Names of the batches whose logits :meth:`loss` reads."""
        return ("attack",)

    def loss(self, logits: Mapping[str, Tensor]) -> Tensor:
        """Differentiable scalar (to be maximised) from the named batches' logits."""
        raise NotImplementedError

    def metrics(self, predictions: np.ndarray) -> ObjectiveMetrics:
        """Metrics of the evaluation-set argmax predictions."""
        raise NotImplementedError

    def is_satisfied(self, metrics) -> bool:
        """Whether observed metrics (or a bare accuracy) meet the objective."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable summary used in reports."""
        raise NotImplementedError

    @classmethod
    def check_values(cls, params: Mapping[str, Any]) -> None:
        """Numeric bounds of this kind's parameters (absent ones take their defaults).

        The one check shared by :meth:`validate_params` (spec time) and the
        constructor, so a bad value fails identically in both places.
        """

    @classmethod
    def validate_params(cls, params: Mapping[str, Any]) -> None:
        """Validate declarative ``ObjectiveConfig`` parameters for this kind.

        Called at spec-construction time so invalid experiment descriptions
        — unknown or reserved parameter names, a missing ``target_class``,
        a targeted objective with ``source_class == target_class`` — fail
        before any work unit runs.
        """
        unknown = set(params) - cls.spec_params
        if unknown:
            allowed = ", ".join(sorted(cls.spec_params)) or "(none)"
            raise ValueError(
                f"objective kind {cls.kind!r} does not accept parameter(s) "
                f"{sorted(unknown)}; allowed: {allowed}"
            )
        missing = cls.required_spec_params - set(params)
        if missing:
            raise ValueError(
                f"objective kind {cls.kind!r} requires {sorted(missing)!r}"
            )
        cls.check_values(params)

    # -- shared machinery ----------------------------------------------
    @property
    def target_accuracy(self) -> float:
        """Accuracy threshold of accuracy-driven objectives (``nan`` otherwise)."""
        return float("nan")

    def attack_loss_and_gradients(
        self, model: Module, evaluator: Optional[SuffixEvaluator] = None
    ) -> float:
        """Forward + backward on the attack batches; gradients stay on the model.

        With an evaluator the graph-recording forward also stores each
        batch's stage boundaries, so the trial evaluations that follow
        start from a warm cache at no extra forward cost.
        """
        model.zero_grad()
        logits = {}
        for key in self.batch_names():
            batch = self._batch_tensor(key)
            if evaluator is None:
                logits[key] = model(batch)
            else:
                logits[key] = evaluator.forward_tensor(key, batch)
        loss = self.loss(logits)
        loss.backward()
        return float(loss.item())

    def attack_loss(
        self,
        model: Module,
        flip_stage: Optional[int] = None,
        evaluator: Optional[SuffixEvaluator] = None,
    ) -> float:
        """Forward-only loss on the attack batches (one trial flip at a time).

        ``flip_stage`` is the forward stage of the weight currently under a
        *trial* flip; with an evaluator the loss is computed by suffix
        re-execution from that stage (bit-identical to the full forward,
        see :mod:`repro.nn.inference`).
        """
        if evaluator is None:
            logits = {key: model(self._batch_tensor(key)) for key in self.batch_names()}
        else:
            stage = 0 if flip_stage is None else flip_stage
            logits = {
                key: Tensor(evaluator.peek(key, self._batch_tensor(key).data, stage))
                for key in self.batch_names()
            }
        return float(self.loss(logits).item())

    def attack_losses(
        self, trials: Sequence[TrialFlip], evaluator: SuffixEvaluator
    ) -> List[float]:
        """Forward-only losses of several *trial* flips, one per trial in order.

        Each batch is scored for every trial through one
        :meth:`SuffixEvaluator.peek_many` cascade — each flipped stage runs
        per trial, every shared downstream stage runs once on the stacked
        trials — and each trial's loss is then computed from its own logits
        with exactly the operations of :meth:`attack_loss`, so the losses
        are bit-identical to ``apply -> attack_loss -> revert`` one trial at
        a time.
        """
        outputs = {
            key: evaluator.peek_many(key, self._batch_tensor(key).data, trials)
            for key in self.batch_names()
        }
        return [
            float(self.loss({key: Tensor(out[index]) for key, out in outputs.items()}).item())
            for index in range(len(trials))
        ]

    def evaluate(
        self,
        model: Module,
        batch_size: int = 64,
        evaluator: Optional[SuffixEvaluator] = None,
    ) -> ObjectiveMetrics:
        """Measure the objective's metrics on the evaluation set."""
        return self.metrics(self._eval_predictions(model, batch_size, evaluator))

    def resample_attack_batch(self) -> bool:
        """Draw a fresh attack batch from the pool (returns False if no pool).

        A caller holding an evaluator must drop its ``"attack"`` entry
        after a True return.
        """
        if self.attack_pool_x is None or self.attack_pool_y is None:
            return False
        count = min(self.attack_x.shape[0], self.attack_pool_x.shape[0])
        index = self._resample_rng.choice(self.attack_pool_x.shape[0], size=count, replace=False)
        self.attack_x = self.attack_pool_x[index]
        self.attack_y = self.attack_pool_y[index]
        return True

    @classmethod
    def from_dataset(cls, dataset: Dataset, **kwargs) -> "AttackObjective":
        """Build an objective from a dataset.

        Called on the base class this dispatches to
        :class:`UntargetedDegradation` (the paper's objective), preserving
        the pre-refactor call sites; concrete subclasses override it.
        """
        if cls is AttackObjective:
            return UntargetedDegradation.from_dataset(dataset, **kwargs)
        raise NotImplementedError(f"{cls.__name__} does not implement from_dataset")

    # -- helpers shared by the concrete objectives ---------------------
    def _check_batch_shapes(self) -> None:
        if self.attack_x.shape[0] != self.attack_y.shape[0]:
            raise ValueError("attack batch inputs and labels disagree in size")
        if self.eval_x.shape[0] != self.eval_y.shape[0]:
            raise ValueError("evaluation inputs and labels disagree in size")

    def _batch_tensor(self, key: str) -> Tensor:
        """Hoisted :class:`Tensor` view of a named batch ("attack" / "clean").

        The wrapping tensor is allocated once and reused across every loss
        evaluation; the identity check re-wraps automatically when
        :meth:`resample_attack_batch` swaps the underlying array.
        """
        array = self.attack_x if key == "attack" else self.clean_x
        cache = getattr(self, "_batch_tensor_cache", None)
        if cache is None:
            cache = {}
            self._batch_tensor_cache = cache
        cached = cache.get(key)
        if cached is None or cached[0] is not array:
            cached = (array, Tensor(array))
            cache[key] = cached
        return cached[1]

    def _eval_batches(self, batch_size: int):
        """Pre-sliced evaluation batches, memoized per batch size.

        Returns ``(start, batch_array, batch_tensor)`` triples; slicing and
        tensor wrapping happen once per objective instead of on every
        evaluation pass (``eval_x`` / ``eval_y`` never change).
        """
        cache = getattr(self, "_eval_batch_cache", None)
        if cache is None:
            cache = {}
            self._eval_batch_cache = cache
        batches = cache.get(batch_size)
        if batches is None:
            batches = []
            for start in range(0, self.eval_x.shape[0], batch_size):
                batch_x = self.eval_x[start : start + batch_size]
                batches.append((start, batch_x, Tensor(batch_x)))
            cache[batch_size] = batches
        return batches

    def _eval_predictions(
        self, model: Module, batch_size: int, evaluator: Optional[SuffixEvaluator]
    ) -> np.ndarray:
        """Batched argmax predictions over the evaluation set.

        Without an evaluator each batch runs a gradient-free full forward.
        With one, the batches are pushed through
        :meth:`SuffixEvaluator.forward_many` in one call: after a committed
        flip every batch resumes from the same invalidated stage, so the
        whole evaluation set costs a single stacked suffix execution
        (bit-identical to the per-batch forwards it replaces).
        """
        model.eval()
        batches = self._eval_batches(batch_size)
        if evaluator is not None:
            logits = evaluator.forward_many(
                [(("eval", start, batch_size), batch_x) for start, batch_x, _ in batches]
            )
        else:
            with no_grad(), kernels.hold():
                logits = [model(batch).data for _, _, batch in batches]
        if not logits:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate([np.argmax(block, axis=-1) for block in logits])

    def _accuracy(self, predictions: np.ndarray) -> float:
        """Overall accuracy (%) of evaluation-set predictions (0 when empty)."""
        if predictions.size == 0:
            return 0.0
        return float((predictions == self.eval_y).mean() * 100.0)

    @staticmethod
    def _metric_accuracy(value) -> float:
        """Accept either bare accuracies or :class:`ObjectiveMetrics`."""
        if isinstance(value, ObjectiveMetrics):
            return value.accuracy
        return float(value)


# ----------------------------------------------------------------------
# Registry (mirrors the experiment-spec / defense registries)
# ----------------------------------------------------------------------
OBJECTIVE_KINDS: Dict[str, Type[AttackObjective]] = {}


def register_objective(cls: Type[AttackObjective]) -> Type[AttackObjective]:
    """Class decorator adding an objective type to the ``kind`` registry."""
    if not cls.kind:
        raise ValueError(f"{cls.__name__} must define a non-empty kind")
    OBJECTIVE_KINDS[cls.kind] = cls
    return cls


@register_objective
@dataclass
class UntargetedDegradation(AttackObjective):
    """The paper's objective: degrade accuracy to the random-guess level.

    Attributes
    ----------
    attack_x / attack_y:
        The mini-batch the attacker uses to compute gradients and compare
        losses (the paper samples a random test batch).
    eval_x / eval_y:
        The samples on which the attack success is measured.
    random_guess_accuracy:
        The target accuracy level in percent (``100 / #classes``).
    tolerance:
        The attack is considered successful when the evaluation accuracy is
        at most ``random_guess_accuracy + tolerance`` percentage points.
    """

    kind: ClassVar[str] = "untargeted"
    spec_params: ClassVar[frozenset] = frozenset({"tolerance", "relative_factor"})

    attack_x: np.ndarray
    attack_y: np.ndarray
    eval_x: np.ndarray
    eval_y: np.ndarray
    random_guess_accuracy: float
    #: Absolute slack (percentage points) added to the random-guess level.
    tolerance: float = 2.0
    #: Relative slack: the objective is also considered met at
    #: ``random_guess_accuracy * relative_factor``.  The paper's physical
    #: experiments land essentially at the random-guess level; the surrogate
    #: evaluation sets are small (tens of samples), so a modest relative
    #: margin absorbs their quantisation noise.
    relative_factor: float = 2.0
    #: Optional pool from which the attack batch can be resampled between
    #: iterations (keeps gradients informative once the original batch is
    #: fully misclassified).
    attack_pool_x: Optional[np.ndarray] = None
    attack_pool_y: Optional[np.ndarray] = None
    resample_seed: Optional[int] = None

    def __post_init__(self) -> None:
        check_positive("random_guess_accuracy", self.random_guess_accuracy)
        self.check_values(vars(self))
        self._check_batch_shapes()
        self._resample_rng = np.random.default_rng(self.resample_seed)

    @classmethod
    def check_values(cls, params: Mapping[str, Any]) -> None:
        """Non-negative ``tolerance`` and ``relative_factor >= 1``."""
        check_non_negative("tolerance", params.get("tolerance", 2.0))
        relative_factor = params.get("relative_factor", 2.0)
        if relative_factor < 1.0:
            raise ValueError(f"relative_factor must be >= 1, got {relative_factor}")

    # ------------------------------------------------------------------
    @classmethod
    def from_dataset(
        cls,
        dataset: Dataset,
        attack_batch_size: int = 32,
        eval_samples: Optional[int] = None,
        tolerance: float = 2.0,
        relative_factor: float = 2.0,
        seed: Optional[int] = None,
    ) -> "UntargetedDegradation":
        """Build an objective from a dataset (random attack batch + test set)."""
        attack_x, attack_y = dataset.attack_batch(attack_batch_size, seed=seed)
        if eval_samples is None or eval_samples >= dataset.test_x.shape[0]:
            eval_x, eval_y = dataset.test_x, dataset.test_y
        else:
            eval_x, eval_y = dataset.attack_batch(eval_samples, seed=None if seed is None else seed + 1)
        return cls(
            attack_x=attack_x,
            attack_y=attack_y,
            eval_x=eval_x,
            eval_y=eval_y,
            random_guess_accuracy=dataset.random_guess_accuracy,
            tolerance=tolerance,
            relative_factor=relative_factor,
            attack_pool_x=dataset.test_x,
            attack_pool_y=dataset.test_y,
            # Offset the resampling stream so the first resample does not
            # reproduce the initial attack batch drawn with ``seed``.
            resample_seed=None if seed is None else seed + 7919,
        )

    # ------------------------------------------------------------------
    @property
    def target_accuracy(self) -> float:
        """Accuracy threshold below which the attack objective is satisfied."""
        return max(
            self.random_guess_accuracy + self.tolerance,
            self.random_guess_accuracy * self.relative_factor,
        )

    def loss(self, logits: Mapping[str, Tensor]) -> Tensor:
        """Mean cross-entropy of the attack batch against its true labels."""
        return cross_entropy(logits["attack"], self.attack_y)

    def metrics(self, predictions: np.ndarray) -> ObjectiveMetrics:
        """Overall accuracy only — untargeted attacks have no ASR notion."""
        return ObjectiveMetrics(accuracy=self._accuracy(predictions))

    def is_satisfied(self, metrics) -> bool:
        """Whether an observed accuracy meets the attack objective."""
        return self._metric_accuracy(metrics) <= self.target_accuracy

    def describe(self) -> str:
        """Human-readable summary used in reports."""
        return (
            f"degrade accuracy to <= {self.target_accuracy:.2f}% "
            f"(random guess {self.random_guess_accuracy:.2f}% + {self.tolerance:.2f}pt tolerance)"
        )


@register_objective
@dataclass
class TargetedMisclassification(AttackObjective):
    """Drive ``source_class`` samples into ``target_class``.

    The search maximises the *negative* cross-entropy of the (source-class)
    attack batch against the target label — gradient ascent on that scalar
    pushes source samples towards the target class, so both bit-search
    engines work unchanged.  Success is measured by the attack-success-rate
    (ASR): the percentage of source-class evaluation samples the attacked
    model classifies as ``target_class``.

    The ASR is ``nan`` when the evaluation set contains no source-class
    samples (reports render the undefined value as ``-``); an undefined ASR
    never satisfies the objective.
    """

    kind: ClassVar[str] = "targeted"
    spec_params: ClassVar[frozenset] = frozenset(
        {"source_class", "target_class", "success_threshold"}
    )
    required_spec_params: ClassVar[frozenset] = frozenset({"source_class", "target_class"})

    attack_x: np.ndarray
    attack_y: np.ndarray
    eval_x: np.ndarray
    eval_y: np.ndarray
    source_class: int
    target_class: int
    #: ASR (%) at or above which the attack is considered successful.
    success_threshold: float = 90.0
    attack_pool_x: Optional[np.ndarray] = None
    attack_pool_y: Optional[np.ndarray] = None
    resample_seed: Optional[int] = None

    def __post_init__(self) -> None:
        self.check_values(vars(self))
        self._check_batch_shapes()
        self._resample_rng = np.random.default_rng(self.resample_seed)

    # ------------------------------------------------------------------
    @classmethod
    def check_values(cls, params: Mapping[str, Any]) -> None:
        """Distinct non-negative classes and a percentage success threshold."""
        if params["source_class"] == params["target_class"]:
            raise ValueError(
                "source_class and target_class must differ, both are "
                f"{params['source_class']}"
            )
        check_non_negative("source_class", params["source_class"])
        check_non_negative("target_class", params["target_class"])
        threshold = params.get("success_threshold", 90.0)
        check_positive("success_threshold", threshold)
        if threshold > 100.0:
            raise ValueError(f"success_threshold is a percentage, got {threshold}")

    @classmethod
    def from_dataset(
        cls,
        dataset: Dataset,
        source_class: int,
        target_class: int,
        attack_batch_size: int = 32,
        eval_samples: Optional[int] = None,
        success_threshold: float = 90.0,
        seed: Optional[int] = None,
        **extra,
    ) -> "TargetedMisclassification":
        """Build a targeted objective: source-class attack batch + test eval set."""
        source_x, source_y = cls._source_samples(dataset, source_class)
        rng = derive_rng(seed)
        count = min(attack_batch_size, source_x.shape[0])
        index = rng.choice(source_x.shape[0], size=count, replace=False)
        eval_x, eval_y = cls._eval_split(dataset, eval_samples, seed)
        return cls(
            attack_x=source_x[index],
            attack_y=source_y[index],
            eval_x=eval_x,
            eval_y=eval_y,
            source_class=source_class,
            target_class=target_class,
            success_threshold=success_threshold,
            # Resampling stays inside the source class so the targeted loss
            # always sees on-class gradients.
            attack_pool_x=source_x,
            attack_pool_y=source_y,
            resample_seed=None if seed is None else seed + 7919,
            **extra,
        )

    @staticmethod
    def _source_samples(dataset: Dataset, source_class: int) -> Tuple[np.ndarray, np.ndarray]:
        mask = dataset.test_y == source_class
        if not mask.any():
            raise ValueError(f"dataset has no test samples of source class {source_class}")
        return dataset.test_x[mask], dataset.test_y[mask]

    @staticmethod
    def _eval_split(
        dataset: Dataset, eval_samples: Optional[int], seed: Optional[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        if eval_samples is None or eval_samples >= dataset.test_x.shape[0]:
            return dataset.test_x, dataset.test_y
        return dataset.attack_batch(eval_samples, seed=None if seed is None else seed + 1)

    # ------------------------------------------------------------------
    def loss(self, logits: Mapping[str, Tensor]) -> Tensor:
        """Negative cross-entropy towards the target class (ascended by the search)."""
        targets = np.full(self.attack_x.shape[0], self.target_class, dtype=np.int64)
        return -cross_entropy(logits["attack"], targets)

    def metrics(self, predictions: np.ndarray) -> ObjectiveMetrics:
        """Overall accuracy plus the ASR (``nan`` without source-class samples)."""
        if predictions.size == 0:
            return ObjectiveMetrics(accuracy=0.0, attack_success_rate=float("nan"))
        accuracy = self._accuracy(predictions)
        source_mask = self.eval_y == self.source_class
        if source_mask.any():
            asr = float((predictions[source_mask] == self.target_class).mean() * 100.0)
        else:
            asr = float("nan")
        return ObjectiveMetrics(accuracy=accuracy, attack_success_rate=asr)

    def is_satisfied(self, metrics) -> bool:
        """ASR at or above the success threshold (an undefined ASR never is)."""
        if not isinstance(metrics, ObjectiveMetrics):
            raise TypeError("targeted objectives decide convergence from ObjectiveMetrics")
        asr = metrics.attack_success_rate
        return asr is not None and not math.isnan(asr) and asr >= self.success_threshold

    def describe(self) -> str:
        """Human-readable summary used in reports."""
        return (
            f"misclassify class {self.source_class} as class {self.target_class} "
            f"(ASR >= {self.success_threshold:.1f}%)"
        )


@register_objective
@dataclass
class StealthyTargeted(TargetedMisclassification):
    """Targeted misclassification with a bounded clean-accuracy drop.

    The attack loss adds a stealth term: maximising
    ``-CE(source -> target) - stealth_weight * CE(clean batch -> true)``
    rewards flips that push the source class to the target while *keeping
    the clean batch correct*.  Convergence additionally requires the
    accuracy on the **non-source** evaluation samples (the intended
    misclassifications are not collateral damage) to sit within
    ``max_clean_accuracy_drop`` percentage points of the baseline captured
    on the first :meth:`metrics` call (the pre-attack measurement of the
    bit-search loop).
    """

    kind: ClassVar[str] = "stealthy_targeted"
    spec_params: ClassVar[frozenset] = TargetedMisclassification.spec_params | frozenset(
        {"max_clean_accuracy_drop", "stealth_weight", "clean_batch_size"}
    )

    @classmethod
    def check_values(cls, params: Mapping[str, Any]) -> None:
        """Targeted checks plus the stealth-specific numeric bounds."""
        super().check_values(params)
        check_non_negative(
            "max_clean_accuracy_drop", params.get("max_clean_accuracy_drop", 5.0)
        )
        check_non_negative("stealth_weight", params.get("stealth_weight", 1.0))
        clean_batch_size = params.get("clean_batch_size")
        if clean_batch_size is not None:
            check_non_negative("clean_batch_size", clean_batch_size)

    #: Largest tolerated drop (percentage points) of overall accuracy.
    max_clean_accuracy_drop: float = 5.0
    #: Weight of the collateral-damage term in the attack loss.
    stealth_weight: float = 1.0
    #: Held-out non-source samples whose loss anchors the stealth term.
    clean_x: Optional[np.ndarray] = None
    clean_y: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if (self.clean_x is None) != (self.clean_y is None):
            raise ValueError("clean_x and clean_y must be provided together")
        if self.clean_x is not None and self.clean_x.shape[0] != self.clean_y.shape[0]:
            raise ValueError("clean batch inputs and labels disagree in size")
        self._baseline_accuracy: Optional[float] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_dataset(
        cls,
        dataset: Dataset,
        source_class: int,
        target_class: int,
        attack_batch_size: int = 32,
        eval_samples: Optional[int] = None,
        success_threshold: float = 90.0,
        seed: Optional[int] = None,
        max_clean_accuracy_drop: float = 5.0,
        stealth_weight: float = 1.0,
        clean_batch_size: Optional[int] = None,
    ) -> "StealthyTargeted":
        """Targeted construction plus a non-source clean batch for the stealth term."""
        mask = dataset.test_y != source_class
        clean_x, clean_y = dataset.test_x[mask], dataset.test_y[mask]
        # clean_batch_size=0 is a valid request: no stealth anchor batch.
        requested = clean_batch_size if clean_batch_size is not None else attack_batch_size
        count = min(requested, clean_x.shape[0])
        if count:
            # A second derived stream keeps the clean draw independent of the
            # source-batch draw while staying fully seed-determined.
            rng = derive_rng(None if seed is None else seed + 104729)
            index = rng.choice(clean_x.shape[0], size=count, replace=False)
            clean_x, clean_y = clean_x[index], clean_y[index]
        else:
            clean_x = clean_y = None
        return super().from_dataset(
            dataset,
            source_class=source_class,
            target_class=target_class,
            attack_batch_size=attack_batch_size,
            eval_samples=eval_samples,
            success_threshold=success_threshold,
            seed=seed,
            max_clean_accuracy_drop=max_clean_accuracy_drop,
            stealth_weight=stealth_weight,
            clean_x=clean_x,
            clean_y=clean_y,
        )

    # ------------------------------------------------------------------
    def batch_names(self) -> Tuple[str, ...]:
        """The attack batch, plus the clean batch when the stealth term is live."""
        if self.clean_x is not None and self.clean_x.shape[0] and self.stealth_weight > 0:
            return ("attack", "clean")
        return ("attack",)

    def loss(self, logits: Mapping[str, Tensor]) -> Tensor:
        """Targeted term minus the weighted collateral-damage term."""
        loss = super().loss(logits)
        if "clean" in logits:
            loss = loss - self.stealth_weight * cross_entropy(logits["clean"], self.clean_y)
        return loss

    def metrics(self, predictions: np.ndarray) -> ObjectiveMetrics:
        """Targeted metrics plus the non-source accuracy drop vs the baseline.

        The stealth bound deliberately excludes source-class samples: the
        attack is *supposed* to misclassify those, so counting them as
        collateral damage would make high-ASR objectives unsatisfiable on
        balanced evaluation sets.  "Clean" accuracy is therefore measured
        on the non-source evaluation samples, against a baseline captured
        on the first call (the bit-search loop's pre-attack measurement).
        """
        metrics = super().metrics(predictions)
        clean_mask = self.eval_y != self.source_class
        if predictions.size and clean_mask.any():
            clean_accuracy = float(
                (predictions[clean_mask] == self.eval_y[clean_mask]).mean() * 100.0
            )
        else:
            clean_accuracy = float("nan")
        if self._baseline_accuracy is None:
            self._baseline_accuracy = clean_accuracy
        return replace(metrics, clean_accuracy_drop=self._baseline_accuracy - clean_accuracy)

    def is_satisfied(self, metrics) -> bool:
        """Targeted success while the accuracy drop stays within bounds."""
        if not super().is_satisfied(metrics):
            return False
        drop = metrics.clean_accuracy_drop
        return drop is not None and drop <= self.max_clean_accuracy_drop

    def describe(self) -> str:
        """Human-readable summary used in reports."""
        return (
            super().describe()
            + f" while dropping clean accuracy <= {self.max_clean_accuracy_drop:.1f}pt"
        )


# ----------------------------------------------------------------------
# Declarative objective description (experiment-spec building block)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ObjectiveConfig:
    """Declarative description of an attack objective (JSON round-trippable).

    ``objective_kind`` selects a registered :class:`AttackObjective`
    subclass; ``params`` are forwarded to its ``from_dataset`` constructor
    (e.g. ``source_class`` / ``target_class`` / ``success_threshold`` for
    the targeted kinds).  Validation happens at construction time via the
    kind's :meth:`AttackObjective.validate_params`, so an invalid experiment
    spec — a targeted objective whose source and target coincide, say — is
    rejected before any work unit executes.
    """

    objective_kind: str = "untargeted"
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        try:
            cls = OBJECTIVE_KINDS[self.objective_kind]
        except KeyError as exc:
            known = ", ".join(sorted(OBJECTIVE_KINDS))
            raise ValueError(
                f"unknown objective kind {self.objective_kind!r}; known kinds: {known}"
            ) from exc
        cls.validate_params(dict(self.params))

    @property
    def objective_class(self) -> Type[AttackObjective]:
        """The registered :class:`AttackObjective` subclass this selects."""
        return OBJECTIVE_KINDS[self.objective_kind]

    def build(
        self,
        dataset: Dataset,
        attack_batch_size: int = 32,
        eval_samples: Optional[int] = None,
        tolerance: float = 2.0,
        seed: Optional[int] = None,
    ) -> AttackObjective:
        """Instantiate the objective against a concrete dataset.

        ``tolerance`` only applies to accuracy-driven (untargeted)
        objectives; targeted kinds take their thresholds from ``params``.
        """
        cls = self.objective_class
        kwargs = dict(self.params)
        if issubclass(cls, UntargetedDegradation):
            kwargs.setdefault("tolerance", tolerance)
        return cls.from_dataset(
            dataset,
            attack_batch_size=attack_batch_size,
            eval_samples=eval_samples,
            seed=seed,
            **kwargs,
        )

    def describe(self) -> str:
        """One-line summary (kind plus any non-default parameters)."""
        if not self.params:
            return self.objective_kind
        rendered = ", ".join(f"{key}={value}" for key, value in sorted(self.params.items()))
        return f"{self.objective_kind}({rendered})"
