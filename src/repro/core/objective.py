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

* the **attack batch** used for gradient/loss evaluation during the search,
* the **evaluation set** on which progress is measured, and
* the **stopping criterion** deciding when the attack has succeeded,

and defines the scalar loss the search ascends.  The progressive bit search
(:class:`repro.core.bfa.BitFlipAttack`) calls :meth:`attack_loss_and_gradients`
/ :meth:`attack_loss` to rank candidate flips and :meth:`evaluate` /
:meth:`is_satisfied` to decide convergence — nothing else.  Adding a new
scenario therefore means implementing one subclass and registering it with
:func:`register_objective`; every engine (vectorized, ``"reference"`` and
the ``"compiled"`` kernel tier), every runner backend and the declarative
experiment layer pick it up unmodified — objectives call the model through
the op layer, so :mod:`repro.nn.kernels` dispatch applies to their forward
passes exactly as it does to the search's own suffix cascades.

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
from typing import Any, ClassVar, Dict, List, Mapping, Optional, Tuple, Type

import numpy as np

from repro.nn.autograd import Tensor
from repro.nn.data import Dataset
from repro.nn.loss import cross_entropy
from repro.nn.module import Module
from repro.nn.training import evaluate
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
    measurement set) and optionally a resampling pool.  This base class
    provides the shared machinery — loss/gradient evaluation, accuracy
    measurement, attack-batch resampling — while subclasses define

    * :meth:`attack_loss_tensor` — the differentiable scalar the search
      *maximises* (the intra-layer stage ranks candidate flips by its
      gradient, the inter-layer stage by its realised value);
    * :meth:`evaluate` — the :class:`ObjectiveMetrics` observed on a model;
    * :meth:`is_satisfied` — whether observed metrics meet the goal;
    * :meth:`describe` — a human-readable summary for reports.
    """

    #: Registry discriminator (``"untargeted"``, ``"targeted"``, ...).
    kind: ClassVar[str] = ""
    #: Parameter names a declarative :class:`ObjectiveConfig` may set for
    #: this kind (everything else ``from_dataset`` takes — dataset, batch
    #: sizes, seed — is owned by the experiment config).
    spec_params: ClassVar[frozenset] = frozenset()
    #: Subset of :attr:`spec_params` that must be present.
    required_spec_params: ClassVar[frozenset] = frozenset()

    # Incremental-evaluation state (class-level defaults so the dataclass
    # subclasses inherit them without declaring fields).  ``_inference`` is
    # the attached :class:`repro.nn.inference.SuffixEvaluator` (``None`` =
    # the retained full-forward reference path); ``_forward_mode`` selects
    # how :meth:`_model_logits` runs while an engine is attached ("graph"
    # during the gradient pass, "suffix" during forward-only evaluations,
    # "suffix_many" while :meth:`attack_losses` scores a batch of trial
    # flips); ``_suffix_stage`` is the stage of the trial flip being
    # evaluated and ``_trial_flips`` / ``_trial_index`` / ``_trial_logits``
    # the batched-trial state (the flips under evaluation, the trial whose
    # loss is being assembled, and the per-batch-key ``peek_many`` outputs).
    _inference = None
    _forward_mode = None
    _suffix_stage = 0
    _trial_flips = ()
    _trial_index = 0
    _trial_logits = None

    # -- subclass interface --------------------------------------------
    def attack_loss_tensor(self, model: Module) -> Tensor:
        """Differentiable scalar loss on the attack batch (to be maximised)."""
        raise NotImplementedError

    def evaluate(self, model: Module, batch_size: int = 64) -> ObjectiveMetrics:
        """Measure the objective's metrics on the evaluation set."""
        raise NotImplementedError

    def is_satisfied(self, metrics) -> bool:
        """Whether observed metrics (or a bare accuracy) meet the objective."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable summary used in reports."""
        raise NotImplementedError

    @classmethod
    def validate_params(cls, params: Mapping[str, Any]) -> None:
        """Validate declarative ``ObjectiveConfig`` parameters for this kind.

        Called at spec-construction time so invalid experiment descriptions
        — unknown or reserved parameter names, a missing ``target_class``,
        a targeted objective with ``source_class == target_class`` — fail
        before any work unit runs.  Subclasses extend this with their
        kind-specific consistency checks.
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

    # -- shared machinery ----------------------------------------------
    @property
    def target_accuracy(self) -> float:
        """Accuracy threshold of accuracy-driven objectives (``nan`` otherwise)."""
        return float("nan")

    def attach_inference_engine(self, engine) -> None:
        """Route evaluations through an incremental no-grad inference engine.

        ``engine`` is a :class:`repro.nn.inference.SuffixEvaluator` built
        for the attacked model.  While attached, forward-only evaluations
        (:meth:`attack_loss`, :meth:`_eval_predictions`,
        :meth:`evaluation_accuracy`) resume from the engine's cached stage
        boundaries instead of re-running the whole network, and the
        gradient pass records those boundaries as it goes.  The caller owns
        cache consistency: committed weight mutations must be followed by
        ``engine.invalidate_from`` (:class:`repro.core.bfa.BitFlipAttack`
        does this in its commit step).  Detach (or clear the engine) before
        mutating weights out of band.
        """
        self._inference = engine

    def detach_inference_engine(self) -> None:
        """Return to the full-forward (reference) evaluation path."""
        self._inference = None

    def attack_loss_and_gradients(self, model: Module) -> float:
        """Forward + backward on the attack batch; gradients stay on the model."""
        model.zero_grad()
        if self._inference is not None:
            self._forward_mode = "graph"
            try:
                loss = self.attack_loss_tensor(model)
            finally:
                self._forward_mode = None
        else:
            loss = self.attack_loss_tensor(model)
        loss.backward()
        return float(loss.item())

    def attack_loss(self, model: Module, flip_stage: Optional[int] = None) -> float:
        """Forward-only loss on the attack batch (used by trial flips).

        ``flip_stage`` is the forward stage of the weight currently under a
        *trial* flip; with an inference engine attached the loss is then
        computed by suffix re-execution from that stage (bit-identical to
        the full forward, see :mod:`repro.nn.inference`).
        """
        if self._inference is not None:
            self._forward_mode = "suffix"
            self._suffix_stage = 0 if flip_stage is None else flip_stage
            try:
                return float(self.attack_loss_tensor(model).item())
            finally:
                self._forward_mode = None
        return float(self.attack_loss_tensor(model).item())

    def attack_losses(self, model: Module, trials) -> List[float]:
        """Forward-only losses of several *trial* flips, batched when possible.

        ``trials`` is a sequence of :class:`repro.nn.inference.TrialFlip`
        (stage + apply/revert callables); the returned list holds one loss
        per trial, in trial order.  With an inference engine attached the
        trials are scored through :meth:`SuffixEvaluator.peek_many` — each
        flipped stage runs per trial, every shared downstream stage runs
        once on the stacked trials — and each trial's loss is then computed
        from its own logits with exactly the sequential operations, so the
        losses are bit-identical to ``apply -> attack_loss -> revert`` one
        trial at a time.  Without an engine (the reference path) that
        sequential loop is executed literally.
        """
        if self._inference is None:
            losses = []
            for trial in trials:
                trial.apply()
                try:
                    losses.append(self.attack_loss(model, flip_stage=trial.stage))
                finally:
                    trial.revert()
            return losses
        self._forward_mode = "suffix_many"
        self._trial_flips = tuple(trials)
        self._trial_logits = {}
        losses = []
        try:
            for index in range(len(self._trial_flips)):
                self._trial_index = index
                losses.append(float(self.attack_loss_tensor(model).item()))
        finally:
            self._forward_mode = None
            self._trial_flips = ()
            self._trial_logits = None
        return losses

    def evaluation_accuracy(self, model: Module, batch_size: int = 64) -> float:
        """Accuracy (%) on the evaluation samples."""
        if self._inference is not None:
            predictions = self._eval_predictions(model, batch_size)
            if predictions.size == 0:
                return 0.0
            return float((predictions == self.eval_y).mean() * 100.0)
        return evaluate(model, self.eval_x, self.eval_y, batch_size=batch_size)

    def resample_attack_batch(self) -> bool:
        """Draw a fresh attack batch from the pool (returns False if no pool)."""
        if self.attack_pool_x is None or self.attack_pool_y is None:
            return False
        count = min(self.attack_x.shape[0], self.attack_pool_x.shape[0])
        index = self._resample_rng.choice(self.attack_pool_x.shape[0], size=count, replace=False)
        self.attack_x = self.attack_pool_x[index]
        self.attack_y = self.attack_pool_y[index]
        if self._inference is not None:
            self._inference.drop("attack")
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

    def _model_logits(self, model: Module, key: str) -> Tensor:
        """Logits of the named batch on the current evaluation path.

        Reference path (no engine attached): a plain full forward.  With an
        engine attached, the gradient pass records stage boundaries while
        building the graph and forward-only trial evaluations resume from
        the flipped stage — both bit-identical to the full forward.
        """
        batch = self._batch_tensor(key)
        if self._inference is None or self._forward_mode is None:
            return model(batch)
        if self._forward_mode == "graph":
            return self._inference.forward_tensor(key, batch)
        if self._forward_mode == "suffix_many":
            # Batched trial scoring: the first logits request for a batch
            # key scores *every* trial flip through one peek_many cascade;
            # subsequent trials of the same attack_losses call read their
            # slice from the memo, so per-trial loss assembly costs only
            # the loss operations themselves.
            cached = self._trial_logits.get(key)
            if cached is None:
                cached = self._inference.peek_many(key, batch.data, self._trial_flips)
                self._trial_logits[key] = cached
            return Tensor(cached[self._trial_index])
        return Tensor(self._inference.peek(key, batch.data, self._suffix_stage))

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

    def _eval_predictions(self, model: Module, batch_size: int) -> np.ndarray:
        """Batched argmax predictions over the evaluation set.

        With an inference engine attached the evaluation batches are pushed
        through :meth:`SuffixEvaluator.forward_many` in one call: after a
        committed flip every batch resumes from the same invalidated stage,
        so the whole evaluation set costs a single stacked suffix execution
        (bit-identical to the per-batch forwards it replaces).
        """
        model.eval()
        predictions = []
        if self._inference is not None:
            items = [
                (("eval", start, batch_size), batch_x)
                for start, batch_x, _ in self._eval_batches(batch_size)
            ]
            for logits in self._inference.forward_many(items):
                predictions.append(np.argmax(logits, axis=-1))
        else:
            for _, _, batch in self._eval_batches(batch_size):
                logits = model(batch)
                predictions.append(np.argmax(logits.data, axis=-1))
        if not predictions:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(predictions)

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
        check_non_negative("tolerance", self.tolerance)
        if self.relative_factor < 1.0:
            raise ValueError(f"relative_factor must be >= 1, got {self.relative_factor}")
        self._check_batch_shapes()
        self._resample_rng = np.random.default_rng(self.resample_seed)

    @classmethod
    def validate_params(cls, params: Mapping[str, Any]) -> None:
        """Unknown-key check plus the constructor's numeric bounds."""
        super().validate_params(params)
        check_non_negative("tolerance", params.get("tolerance", 2.0))
        if params.get("relative_factor", 2.0) < 1.0:
            raise ValueError(
                f"relative_factor must be >= 1, got {params['relative_factor']}"
            )

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

    def attack_loss_tensor(self, model: Module) -> Tensor:
        """Mean cross-entropy of the attack batch against its true labels."""
        logits = self._model_logits(model, "attack")
        return cross_entropy(logits, self.attack_y)

    def evaluate(self, model: Module, batch_size: int = 64) -> ObjectiveMetrics:
        """Overall accuracy only — untargeted attacks have no ASR notion."""
        return ObjectiveMetrics(accuracy=self.evaluation_accuracy(model, batch_size))

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
        if self.source_class == self.target_class:
            raise ValueError(
                f"source_class and target_class must differ, both are {self.source_class}"
            )
        check_non_negative("source_class", self.source_class)
        check_non_negative("target_class", self.target_class)
        check_positive("success_threshold", self.success_threshold)
        if self.success_threshold > 100.0:
            raise ValueError(f"success_threshold is a percentage, got {self.success_threshold}")
        self._check_batch_shapes()
        self._resample_rng = np.random.default_rng(self.resample_seed)

    # ------------------------------------------------------------------
    @classmethod
    def validate_params(cls, params: Mapping[str, Any]) -> None:
        """Fail fast on declarative configs that could never construct."""
        super().validate_params(params)
        if params["source_class"] == params["target_class"]:
            raise ValueError(
                "source_class and target_class must differ, both are "
                f"{params['source_class']}"
            )
        # Mirror the constructor's numeric checks so bad values fail at
        # spec time, not inside a worker after victims are trained.
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
    def attack_loss_tensor(self, model: Module) -> Tensor:
        """Negative cross-entropy towards the target class (ascended by the search)."""
        logits = self._model_logits(model, "attack")
        targets = np.full(self.attack_x.shape[0], self.target_class, dtype=np.int64)
        return -cross_entropy(logits, targets)

    def evaluate(self, model: Module, batch_size: int = 64) -> ObjectiveMetrics:
        """Overall accuracy plus the ASR, from one prediction pass."""
        return self._metrics_from_predictions(self._eval_predictions(model, batch_size))

    def _metrics_from_predictions(self, predictions: np.ndarray) -> ObjectiveMetrics:
        if predictions.size == 0:
            return ObjectiveMetrics(accuracy=0.0, attack_success_rate=float("nan"))
        accuracy = float((predictions == self.eval_y).mean() * 100.0)
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
    on the first :meth:`evaluate` call (the pre-attack measurement of the
    bit-search loop).
    """

    kind: ClassVar[str] = "stealthy_targeted"
    spec_params: ClassVar[frozenset] = TargetedMisclassification.spec_params | frozenset(
        {"max_clean_accuracy_drop", "stealth_weight", "clean_batch_size"}
    )

    @classmethod
    def validate_params(cls, params: Mapping[str, Any]) -> None:
        """Targeted checks plus the stealth-specific numeric bounds."""
        super().validate_params(params)
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
        check_non_negative("max_clean_accuracy_drop", self.max_clean_accuracy_drop)
        check_non_negative("stealth_weight", self.stealth_weight)
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
    def attack_loss_tensor(self, model: Module) -> Tensor:
        """Targeted term minus the weighted collateral-damage term."""
        loss = super().attack_loss_tensor(model)
        if self.clean_x is not None and self.clean_x.shape[0] and self.stealth_weight > 0:
            clean_logits = self._model_logits(model, "clean")
            loss = loss - self.stealth_weight * cross_entropy(clean_logits, self.clean_y)
        return loss

    def evaluate(self, model: Module, batch_size: int = 64) -> ObjectiveMetrics:
        """Targeted metrics plus the non-source accuracy drop vs the baseline.

        The stealth bound deliberately excludes source-class samples: the
        attack is *supposed* to misclassify those, so counting them as
        collateral damage would make high-ASR objectives unsatisfiable on
        balanced evaluation sets.  "Clean" accuracy is therefore measured
        on the non-source evaluation samples, against a baseline captured
        on the first call (the bit-search loop's pre-attack measurement).
        """
        predictions = self._eval_predictions(model, batch_size)
        metrics = self._metrics_from_predictions(predictions)
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
