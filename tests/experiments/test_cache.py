"""VictimCache hit/miss semantics (training counted via monkeypatching) and
its clean-accuracy memo."""

import numpy as np
import pytest

import repro.core.comparison as comparison
from repro.core.bfa import BitSearchConfig
from repro.experiments import (
    ComparisonSpec,
    ExperimentContext,
    ExperimentRunner,
    ResultStore,
    VictimCache,
    VictimKey,
)
from repro.models.registry import get_spec


@pytest.fixture
def counting_prepare(monkeypatch):
    """Replace surrogate training with a cheap counted stand-in."""
    calls = []

    def fake_prepare(spec, seed=0, training_epochs=None):
        calls.append((spec.key, seed, training_epochs))
        model = object()
        dataset = object()
        state = {"w": np.zeros(1)}
        return model, dataset, state

    monkeypatch.setattr(comparison, "prepare_victim", fake_prepare)
    return calls


class TestVictimCache:
    def test_miss_trains_then_hits(self, counting_prepare):
        cache = VictimCache()
        spec = get_spec("resnet20")
        first = cache.get_or_prepare(spec, seed=1)
        assert cache.stats() == {
            "hits": 0, "misses": 1, "entries": 1, "shared_attaches": 0,
        }
        second = cache.get_or_prepare(spec, seed=1)
        assert second is first
        assert cache.stats() == {
            "hits": 1, "misses": 1, "entries": 1, "shared_attaches": 0,
        }
        assert counting_prepare == [("resnet20", 1, None)]

    def test_key_includes_seed_and_epochs(self, counting_prepare):
        cache = VictimCache()
        spec = get_spec("resnet20")
        cache.get_or_prepare(spec, seed=1)
        cache.get_or_prepare(spec, seed=2)
        cache.get_or_prepare(spec, seed=1, training_epochs=3)
        assert len(counting_prepare) == 3
        assert cache.stats()["entries"] == 3
        assert VictimKey("resnet20", 1, None) in cache
        assert VictimKey("resnet20", 3, None) not in cache

    def test_key_includes_model(self, counting_prepare):
        cache = VictimCache()
        cache.get_or_prepare_by_key("resnet20", seed=1)
        cache.get_or_prepare_by_key("m11", seed=1)
        assert [call[0] for call in counting_prepare] == ["resnet20", "m11"]

    def test_clear_forces_retraining(self, counting_prepare):
        cache = VictimCache()
        cache.get_or_prepare_by_key("resnet20")
        cache.clear()
        cache.get_or_prepare_by_key("resnet20")
        assert len(counting_prepare) == 2

    def test_shared_across_experiments_via_context(self, counting_prepare):
        context = ExperimentContext()
        context.victims.get_or_prepare_by_key("resnet20", seed=5)
        # a second "experiment" using the same context reuses the victim
        context.victims.get_or_prepare_by_key("resnet20", seed=5)
        assert len(counting_prepare) == 1

    def test_keeps_every_victim_it_trains(self, counting_prepare):
        cache = VictimCache()
        for seed in range(10):
            cache.get_or_prepare_by_key("resnet20", seed=seed)
        for seed in range(10):
            cache.get_or_prepare_by_key("resnet20", seed=seed)
        assert len(counting_prepare) == 10
        assert cache.stats() == {
            "hits": 10, "misses": 10, "entries": 10, "shared_attaches": 0,
        }


class TestSeededStates:
    def test_seeded_state_materialises_instead_of_training(
        self, counting_prepare, monkeypatch
    ):
        # The fake clean state cannot be loaded into a real model; stand in
        # for the (deterministic) rebuild step as well.
        monkeypatch.setattr(
            VictimCache,
            "_materialize",
            lambda self, spec, key, state: (object(), object(), state),
        )
        state = {"w": np.ones(1)}
        cache = VictimCache()
        cache.seed_states({VictimKey("resnet20", 1, None): state})
        _, _, clean_state = cache.get_or_prepare_by_key("resnet20", seed=1)
        assert clean_state is state
        cache.get_or_prepare_by_key("resnet20", seed=2)  # not seeded: trains
        assert counting_prepare == [("resnet20", 2, None)]
        assert cache.stats()["shared_attaches"] == 1
        assert cache.stats()["misses"] == 1

    def test_context_keeps_an_empty_cache_it_is_given(self):
        cache = VictimCache()
        assert ExperimentContext(cache).victims is cache


class TestContextMemo:
    def test_memo_builds_once(self):
        context = ExperimentContext()
        built = []
        for _ in range(3):
            value = context.memo("key", lambda: built.append(1) or "artefact")
        assert value == "artefact"
        assert built == [1]

    def test_clear_drops_memo(self):
        context = ExperimentContext()
        context.memo("key", lambda: "first")
        context.clear()
        assert context.memo("key", lambda: "second") == "second"

    def test_memo_evicts_least_recently_used_past_bound(self):
        context = ExperimentContext()
        bound = ExperimentContext.MEMO_ENTRIES
        built = []

        def builder(key):
            return lambda: built.append(key) or f"artefact-{key}"

        for key in range(bound):
            context.memo(key, builder(key))
        # Touch the oldest key: a hit that makes key 1 the eviction victim.
        assert context.memo(0, builder(0)) == "artefact-0"
        context.memo(bound, builder(bound))
        assert built == list(range(bound + 1))
        assert context.memo(0, builder(0)) == "artefact-0"
        assert built == list(range(bound + 1))
        context.memo(1, builder(1))
        assert built == list(range(bound + 1)) + [1]
        assert len(context._memo) == bound


class TestCleanAccuracyMemo:
    """A warm cache measures each victim's clean accuracy once per precision."""

    SEARCH = BitSearchConfig(max_flips=2, top_k_layers=2, eval_batch_size=32)

    def _spec(self, **overrides):
        fields = dict(
            model_keys=("m11",), repetitions=1, attack_batch_size=16, eval_samples=32, search=self.SEARCH,
            training_epochs=1, seed=5, profile_seed=5,
        )
        fields.update(overrides)
        return ComparisonSpec(**fields)

    @pytest.fixture
    def measured(self, monkeypatch):
        """Record every clean-accuracy measurement by deployed precision."""
        calls = []
        real = comparison.measure_clean_accuracy

        def spy(model, dataset, clean_state, num_bits=8):
            calls.append(num_bits)
            return real(model, dataset, clean_state, num_bits=num_bits)

        monkeypatch.setattr(comparison, "measure_clean_accuracy", spy)
        return calls

    def test_measured_once_per_victim_and_precision(self, tmp_path, measured):
        specs = {"a": self._spec(), "b": self._spec(profile_seed=6)}
        store = ResultStore(tmp_path / "warm")
        runner = ExperimentRunner(store=store)
        for name, spec in specs.items():
            runner.run(spec, save_as=name)
        assert measured == [8]
        runner.run(self._spec(victim_precision="int4"))
        assert measured == [8, 4]
        # The memoised accuracy is the one a fresh runner measures.
        for name, spec in specs.items():
            fresh = ResultStore(tmp_path / f"fresh-{name}")
            ExperimentRunner(store=fresh).run(spec, save_as=name)
            assert store.path_for(name).read_bytes() == fresh.path_for(name).read_bytes()

    def test_memo_is_per_precision_and_cleared_with_victims(
        self, counting_prepare, monkeypatch
    ):
        measured = []
        monkeypatch.setattr(
            comparison, "measure_clean_accuracy",
            lambda model, dataset, clean_state, num_bits=8: measured.append(num_bits) or 50.0,
        )
        spec = get_spec("resnet20")
        cache = VictimCache()
        assert cache.clean_accuracy(spec, seed=1) == 50.0
        cache.clean_accuracy(spec, seed=1)
        assert measured == [8]
        cache.clean_accuracy(spec, seed=1, num_bits=4)
        assert measured == [8, 4]
        cache.clear()
        cache.clean_accuracy(spec, seed=1)
        assert measured == [8, 4, 8]
        # Only get_or_prepare's own lookups count as hits.
        assert cache.stats()["hits"] == 0
