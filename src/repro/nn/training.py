"""Training and evaluation loops for the surrogate models."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.nn import kernels
from repro.nn.autograd import Tensor, no_grad
from repro.nn.data import Dataset
from repro.nn.loss import accuracy, cross_entropy
from repro.nn.module import Module
from repro.nn.optim import Adam, Optimizer
from repro.utils.validation import check_positive


@dataclass
class TrainingResult:
    """Summary of a training run."""

    epochs: int
    train_losses: List[float] = field(default_factory=list)
    train_accuracies: List[float] = field(default_factory=list)

    @property
    def final_train_loss(self) -> float:
        """Loss of the last epoch (or ``nan`` when no epoch ran)."""
        return self.train_losses[-1] if self.train_losses else float("nan")


def predict(model: Module, x: np.ndarray, batch_size: int = 64) -> np.ndarray:
    """Logits of ``model`` on ``x``, ``batch_size`` samples per forward pass.

    The forward passes run under :class:`~repro.nn.autograd.no_grad`: no
    graph is built, and the logits are byte-identical to a graph-mode
    forward's.  The kernel dispatch decision is fixed once for the call
    (:func:`repro.nn.kernels.hold`), so an enclosing ``kernels.use``
    scope still decides.
    """
    check_positive("batch_size", batch_size)
    model.eval()
    with no_grad(), kernels.hold():
        batches = [
            model(Tensor(x[start : start + batch_size])).data
            for start in range(0, x.shape[0], batch_size)
        ]
    return np.concatenate(batches) if batches else np.empty((0,))


def evaluate(model: Module, x: np.ndarray, y: np.ndarray, batch_size: int = 64) -> float:
    """Top-1 accuracy (%) of ``model`` on the given samples (see :func:`predict`)."""
    return accuracy(predict(model, x, batch_size=batch_size), y)


def evaluate_on_dataset(model: Module, dataset: Dataset, batch_size: int = 64) -> float:
    """Test-set accuracy (%) of ``model``."""
    return evaluate(model, dataset.test_x, dataset.test_y, batch_size=batch_size)


def train(
    model: Module,
    dataset: Dataset,
    epochs: int = 10,
    batch_size: int = 32,
    lr: float = 1e-3,
    optimizer: Optional[Optimizer] = None,
    seed: int = 0,
    verbose: bool = False,
) -> TrainingResult:
    """Train ``model`` on ``dataset`` with cross-entropy and Adam.

    The surrogates only need to reach comfortably-above-chance accuracy for
    the attack experiments to be meaningful, so the defaults favour a short
    training schedule.  The kernel dispatch decision is fixed once for
    the call (:func:`repro.nn.kernels.hold`), so an enclosing
    ``kernels.use`` scope still decides.
    """
    check_positive("epochs", epochs)
    check_positive("batch_size", batch_size)
    optimizer = optimizer or Adam(model.parameters(), lr=lr)
    result = TrainingResult(epochs=epochs)

    with kernels.hold():
        for epoch in range(epochs):
            model.train()
            epoch_losses = []
            epoch_logits = []
            epoch_labels = []
            for batch_x, batch_y in dataset.batches(batch_size, seed=seed + epoch, train=True):
                optimizer.zero_grad()
                logits = model(Tensor(batch_x))
                loss = cross_entropy(logits, batch_y)
                loss.backward()
                optimizer.step()
                epoch_losses.append(loss.item())
                epoch_logits.append(logits.data)
                epoch_labels.append(batch_y)
            epoch_loss = float(np.mean(epoch_losses))
            epoch_accuracy = accuracy(np.concatenate(epoch_logits), np.concatenate(epoch_labels))
            result.train_losses.append(epoch_loss)
            result.train_accuracies.append(epoch_accuracy)
            if verbose:  # pragma: no cover - logging only
                print(f"epoch {epoch + 1}/{epochs}: loss={epoch_loss:.4f} acc={epoch_accuracy:.2f}%")
    model.eval()
    return result
