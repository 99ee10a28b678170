"""Tests for the synthetic datasets and the training loop."""

import numpy as np
import pytest

from repro.nn.data import (
    Dataset,
    build_dataset,
    make_cifar_like,
    make_imagenet_like,
    make_speech_commands_like,
)
from repro.nn.layers import Flatten, Linear, ReLU, Sequential
from repro.nn.training import evaluate_on_dataset, train


class TestDatasetContainer:
    def test_mismatched_sizes_rejected(self):
        x = np.zeros((4, 3))
        with pytest.raises(ValueError):
            Dataset(x, np.zeros(3), x, np.zeros(4), num_classes=2)

    def test_random_guess_accuracy(self):
        dataset = make_cifar_like(num_classes=10, train_per_class=2, test_per_class=2)
        assert dataset.random_guess_accuracy == pytest.approx(10.0)

    def test_batches_cover_all_samples(self):
        dataset = make_cifar_like(num_classes=4, image_size=8, train_per_class=5, test_per_class=2)
        seen = 0
        for batch_x, batch_y in dataset.batches(8, seed=0):
            assert batch_x.shape[0] == batch_y.shape[0]
            seen += batch_x.shape[0]
        assert seen == 20

    def test_attack_batch_is_subset_of_test(self):
        dataset = make_cifar_like(num_classes=4, image_size=8, train_per_class=5, test_per_class=3)
        x, y = dataset.attack_batch(6, seed=1)
        assert x.shape[0] == 6
        assert x.shape[0] == y.shape[0]

    def test_attack_batch_larger_than_test_clamped(self):
        dataset = make_cifar_like(num_classes=2, image_size=8, train_per_class=3, test_per_class=2)
        x, _ = dataset.attack_batch(100, seed=1)
        assert x.shape[0] == 4


class TestDatasetBuilders:
    def test_shapes(self):
        cifar = make_cifar_like(num_classes=3, image_size=8, train_per_class=2, test_per_class=1)
        assert cifar.input_shape == (3, 8, 8)
        imagenet = make_imagenet_like(num_classes=4, image_size=8, train_per_class=2, test_per_class=1)
        assert imagenet.input_shape == (3, 8, 8)
        speech = make_speech_commands_like(num_classes=3, waveform_length=64, train_per_class=2, test_per_class=1)
        assert speech.input_shape == (1, 64)

    def test_determinism(self):
        a = make_cifar_like(num_classes=3, image_size=8, train_per_class=2, test_per_class=1, seed=9)
        b = make_cifar_like(num_classes=3, image_size=8, train_per_class=2, test_per_class=1, seed=9)
        assert np.allclose(a.train_x, b.train_x)
        assert np.array_equal(a.train_y, b.train_y)

    def test_labels_are_balanced(self):
        dataset = make_cifar_like(num_classes=5, image_size=8, train_per_class=4, test_per_class=2)
        counts = np.bincount(dataset.train_y, minlength=5)
        assert np.all(counts == 4)

    def test_registry_builder(self):
        dataset = build_dataset("speech_commands_like", num_classes=3, waveform_length=32,
                                train_per_class=2, test_per_class=1)
        assert dataset.num_classes == 3
        with pytest.raises(KeyError):
            build_dataset("mnist")


class TestTraining:
    def _mlp(self, dataset):
        features = int(np.prod(dataset.input_shape))
        return Sequential(Flatten(), Linear(features, 32), ReLU(), Linear(32, dataset.num_classes))

    def test_training_improves_over_random_guess(self, tiny_dataset):
        model = self._mlp(tiny_dataset)
        result = train(model, tiny_dataset, epochs=5, batch_size=16, lr=3e-3, seed=0)
        test_accuracy = evaluate_on_dataset(model, tiny_dataset, batch_size=16)
        assert test_accuracy > tiny_dataset.random_guess_accuracy * 1.5
        assert len(result.train_losses) == 5
        assert result.train_losses[-1] < result.train_losses[0]

    def test_model_left_in_eval_mode(self, tiny_dataset):
        model = self._mlp(tiny_dataset)
        train(model, tiny_dataset, epochs=1, batch_size=16)
        assert not model.training

    def test_evaluate_on_dataset_range(self, tiny_dataset):
        model = self._mlp(tiny_dataset)
        accuracy = evaluate_on_dataset(model, tiny_dataset)
        assert 0.0 <= accuracy <= 100.0

    def test_invalid_epochs(self, tiny_dataset):
        with pytest.raises(ValueError):
            train(self._mlp(tiny_dataset), tiny_dataset, epochs=0)
