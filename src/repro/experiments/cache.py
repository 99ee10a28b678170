"""Shared victim cache: train each surrogate once, reuse it everywhere.

Training a surrogate victim is by far the most expensive step of the DNN
experiments, and before the unified experiments API every driver paid it
again: ``prepare_victim`` retrained the same (model, seed) combination per
call.  :class:`VictimCache` memoises the trained model, its dataset and the
clean-state snapshot keyed by everything that influences training, so that

* the repetitions of one comparison run,
* the mechanisms of one comparison run, and
* *different experiments* in the same process (Table I, Fig. 7, ablations)

all share a single training run.  Each resident victim also carries its
post-quantization clean accuracy per deployed precision
(:meth:`VictimCache.clean_accuracy`), measured on first request, so
comparisons re-run on an unchanged victim (a warm daemon, Table I then
Fig. 7) evaluate the clean test set once.  Attack code must keep the existing
contract of restoring the clean state (``model.load_state_dict(clean_state)``)
before mutating weights.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.models.registry import ModelSpec, get_spec
from repro.nn.data import Dataset
from repro.nn.module import Module
from repro.nn.quantization import DEFAULT_NUM_BITS

#: ``(model, dataset, clean_state)`` — the tuple ``prepare_victim`` returns.
VictimTriple = Tuple[Module, Dataset, Dict[str, np.ndarray]]


@dataclass(frozen=True)
class VictimKey:
    """Everything that determines the outcome of victim training."""

    model_key: str
    seed: int
    training_epochs: Optional[int] = None


class VictimCache:
    """Process-local cache of trained surrogate victims.

    The cache is deliberately *not* shared across processes: each
    process-pool worker instantiates its own cache, which keeps the
    semantics identical to serial execution (training is deterministic
    in the key).  Workers still never retrain what the runner already
    trained: the pool hands them the runner's clean states, registered
    with :meth:`seed_states`.

    Every victim stays resident until :meth:`clear`.

    :meth:`clean_accuracy` memoises each resident victim's clean accuracy
    per ``num_bits``; :meth:`clear` drops the memo with the victims.  A
    process-pool worker memoises only within its own cache, so each
    worker measures a victim it evaluates once.
    """

    def __init__(self) -> None:
        self._victims: Dict[VictimKey, VictimTriple] = {}
        #: Clean states registered by :meth:`seed_states`; a miss whose key
        #: has one materialises the victim instead of training it
        #: (bit-identical — training is deterministic in the key).
        self._seeded_states: Dict[VictimKey, Dict[str, np.ndarray]] = {}
        #: Clean accuracy by resident victim, then by ``num_bits``.
        self._clean_accuracies: Dict[VictimKey, Dict[int, float]] = {}
        self.hits = 0
        self.misses = 0
        self.shared_attaches = 0

    def __len__(self) -> int:
        return len(self._victims)

    def __contains__(self, key: VictimKey) -> bool:
        return key in self._victims

    def get_or_prepare(
        self,
        spec: ModelSpec,
        seed: int = 0,
        training_epochs: Optional[int] = None,
    ) -> VictimTriple:
        """Return the trained victim for ``spec``, training it on first use.

        A miss whose key has a seeded clean state (:meth:`seed_states`)
        materialises the victim from it; any other miss trains locally.
        Both yield a bit-identical triple (training is deterministic in
        the key).
        """
        key = VictimKey(spec.key, seed, training_epochs)
        cached = self._victims.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        state = self._seeded_states.get(key)
        if state is not None:
            victim = self._materialize(spec, key, state)
            self.shared_attaches += 1
        else:
            self.misses += 1
            from repro.core.comparison import prepare_victim

            victim = prepare_victim(spec, seed=seed, training_epochs=training_epochs)
        self._victims[key] = victim
        return victim

    def clean_accuracy(
        self,
        spec: ModelSpec,
        seed: int = 0,
        training_epochs: Optional[int] = None,
        num_bits: int = DEFAULT_NUM_BITS,
    ) -> float:
        """Post-quantization clean accuracy of the victim, measured once.

        The value depends only on the trained victim and ``num_bits``, so
        the first request measures it with
        :func:`~repro.core.comparison.measure_clean_accuracy` (which leaves
        the model quantized; every attack restores the clean state first)
        and later requests read the memo.  Looking up a resident victim
        here does not count as a cache hit: the caller has already fetched
        it.
        """
        key = VictimKey(spec.key, seed, training_epochs)
        accuracies = self._clean_accuracies.get(key, {})
        if num_bits not in accuracies:
            from repro.core.comparison import measure_clean_accuracy

            victim = self._victims.get(key) or self.get_or_prepare(
                spec, seed=seed, training_epochs=training_epochs
            )
            accuracies = self._clean_accuracies.setdefault(key, {})
            accuracies[num_bits] = measure_clean_accuracy(*victim, num_bits=num_bits)
        return accuracies[num_bits]

    def seed_states(self, states: Dict[VictimKey, Dict[str, np.ndarray]]) -> None:
        """Register in-process clean states to materialise victims from.

        The process pool seeds every worker context with the states
        the runner trained: a later cache miss whose key matches builds the
        untrained model and loads the given state instead of retraining.
        """
        self._seeded_states.update(states)

    def _materialize(self, spec: ModelSpec, key: VictimKey, state) -> VictimTriple:
        """Rebuild a victim from a trained clean state (no training).

        The dataset and the untrained model are deterministic in the seed,
        and the clean state fully determines every parameter and buffer, so
        the materialised triple is bit-identical to the one local training
        would have produced.  ``state`` doubles as the triple's
        ``clean_state``: restoring between attack repetitions reads
        straight from it.
        """
        dataset = spec.build_dataset(seed=key.seed)
        model = spec.build_model(num_classes=dataset.num_classes, seed=key.seed)
        model.load_state_dict(state)
        return model, dataset, state

    def get_or_prepare_by_key(
        self,
        model_key: str,
        seed: int = 0,
        training_epochs: Optional[int] = None,
    ) -> VictimTriple:
        """Like :meth:`get_or_prepare`, addressed by registry key."""
        return self.get_or_prepare(get_spec(model_key), seed=seed, training_epochs=training_epochs)

    def clear(self) -> None:
        """Drop every cached victim (training will rerun on next access)."""
        self._victims.clear()
        self._clean_accuracies.clear()

    def stats(self) -> Dict[str, int]:
        """Cache counters; ``shared_attaches`` counts seeded materialisations."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._victims),
            "shared_attaches": self.shared_attaches,
        }


class ExperimentContext:
    """Per-process execution state shared across experiments.

    Holds the :class:`VictimCache` plus a small memo table for other
    expensive deterministic artefacts (e.g. the deployment-chip profile
    pair).  The serial backend keeps one context for the runner's whole
    lifetime, so artefacts are shared *across* experiments; each
    process-pool worker builds its own.  The memo keeps only the
    :data:`MEMO_ENTRIES` most recently used artefacts: one spec's work
    units run back to back and share one build, while a daemon serving
    many specs does not hold every profile pair (tens of MB each) for its
    whole life.
    """

    #: Artefacts the memo keeps, least recently used evicted first.
    MEMO_ENTRIES = 2

    def __init__(self, victim_cache: Optional[VictimCache] = None) -> None:
        # ``is None``, not ``or``: an empty cache is falsy (``__len__``).
        self.victims = VictimCache() if victim_cache is None else victim_cache
        self._memo: "OrderedDict[object, object]" = OrderedDict()

    def memo(self, key, builder):
        """Return ``builder()`` memoised under the hashable ``key``."""
        if key in self._memo:
            self._memo.move_to_end(key)
            return self._memo[key]
        value = self._memo[key] = builder()
        while len(self._memo) > self.MEMO_ENTRIES:
            self._memo.popitem(last=False)
        return value

    def clear(self) -> None:
        """Drop all cached state (victims included)."""
        self.victims.clear()
        self._memo.clear()
