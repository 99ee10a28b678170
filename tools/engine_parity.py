#!/usr/bin/env python
"""Training and evaluation parity of the engine tiers over the Table-I roster.

Trains every ``TABLE1_ROSTER`` model for one epoch at seed 3, once
with the kernel registry pinned to the ``vectorized`` (NumPy reference)
tier and once with the ``compiled`` tier active, and compares the sha256
of the two trained state dicts.  The tiers' contract is bit-identity, so
any difference is a bug in a compiled kernel or in its dispatch (for
example a GEMM issued with a different shape than ``np.matmul`` issues).

On each tier it also checks that the gradient-free test-set logits
:func:`repro.nn.training.evaluate` scores (:func:`~repro.nn.training.predict`)
equal a graph-mode forward's byte for byte, on the float victim and on
its 8-bit quantized deployment image, so a kernel that splits the two
forward paths fails here.

Usage::

    python tools/engine_parity.py

Prints one line per model with both digests and the evaluation check.
Exits 1 when any model's digests differ or any evaluation check fails,
and 2 when no compiled kernel backend loads (comparing the reference
tier with itself would prove nothing).
"""

import hashlib
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.comparison import prepare_victim
from repro.models.registry import TABLE1_ROSTER
from repro.nn import kernels
from repro.nn.autograd import Tensor
from repro.nn.quantization import quantize_model
from repro.nn.training import predict

TIERS = ("vectorized", "compiled")
SEED = 3
EPOCHS = 1


def state_digest(state) -> str:
    hasher = hashlib.sha256()
    for name in sorted(state):
        hasher.update(name.encode("utf-8"))
        hasher.update(np.ascontiguousarray(state[name]).tobytes())
    return hasher.hexdigest()


def graph_logits(model, x: np.ndarray, batch_size: int = 64) -> np.ndarray:
    """Test-set logits from forward passes that record the autograd graph."""
    model.eval()
    batches = []
    for start in range(0, x.shape[0], batch_size):
        logits = model(Tensor(x[start : start + batch_size]))
        assert logits.requires_grad, "the reference forward must record a graph"
        batches.append(logits.data)
    return np.concatenate(batches)


def logits_match(model, x: np.ndarray) -> bool:
    """Whether gradient-free logits equal graph-mode ones, byte for byte."""
    return predict(model, x).tobytes() == graph_logits(model, x).tobytes()


def train_and_check(spec, tier: str):
    """Trained-state digest, and whether the float and 8-bit logits match."""
    with kernels.use(tier):
        model, dataset, state = prepare_victim(spec, seed=SEED, training_epochs=EPOCHS)
        float_match = logits_match(model, dataset.test_x)
        quantize_model(model)
        return state_digest(state), float_match and logits_match(model, dataset.test_x)


def main() -> int:
    if not kernels.ensure_available():
        print("FAIL no compiled kernel backend loaded; nothing to compare")
        return 2
    print(f"backend {kernels.backend_name()!r}, kernels: {', '.join(kernels.warmup())}")
    mismatches = []
    for spec in TABLE1_ROSTER:
        started = time.perf_counter()
        digests, logits_equal = zip(*(train_and_check(spec, tier) for tier in TIERS))
        same = digests[0] == digests[1] and all(logits_equal)
        print(
            f"{'ok  ' if same else 'FAIL'} {spec.key:<12} "
            + "  ".join(f"{tier} {digest[:12]}" for tier, digest in zip(TIERS, digests))
            + "  eval "
            + "/".join("same" if equal else "DIFF" for equal in logits_equal)
            + f"  ({time.perf_counter() - started:.1f}s)"
        )
        if not same:
            mismatches.append(spec.key)
    if mismatches:
        print(
            "tiers trained different bytes, or gradient-free logits differ "
            f"from graph-mode ones: {', '.join(mismatches)}"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
