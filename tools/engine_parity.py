#!/usr/bin/env python
"""Training parity of the engine tiers over the whole Table-I roster.

Trains every ``TABLE1_ROSTER`` model for one epoch at seed 3, once
with the kernel registry pinned to the ``vectorized`` (NumPy reference)
tier and once with the ``compiled`` tier active, and compares the sha256
of the two trained state dicts.  The tiers' contract is bit-identity, so
any difference is a bug in a compiled kernel or in its dispatch (for
example a GEMM issued with a different shape than ``np.matmul`` issues).

Usage::

    python tools/engine_parity.py

Prints one line per model with both digests.  Exits 1 when any model's
digests differ, and 2 when no compiled kernel backend loads (comparing
the reference tier with itself would prove nothing).
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

TIERS = ("vectorized", "compiled")
SEED = 3
EPOCHS = 1


def state_digest(state) -> str:
    hasher = hashlib.sha256()
    for name in sorted(state):
        hasher.update(name.encode("utf-8"))
        hasher.update(np.ascontiguousarray(state[name]).tobytes())
    return hasher.hexdigest()


def trained_digest(spec, tier: str) -> str:
    with kernels.use(tier):
        _, _, state = prepare_victim(spec, seed=SEED, training_epochs=EPOCHS)
    return state_digest(state)


def main() -> int:
    if not kernels.ensure_available():
        print("FAIL no compiled kernel backend loaded; nothing to compare")
        return 2
    print(f"backend {kernels.backend_name()!r}, kernels: {', '.join(kernels.warmup())}")
    mismatches = []
    for spec in TABLE1_ROSTER:
        started = time.perf_counter()
        digests = [trained_digest(spec, tier) for tier in TIERS]
        same = digests[0] == digests[1]
        print(
            f"{'ok  ' if same else 'FAIL'} {spec.key:<12} "
            + "  ".join(f"{tier} {digest[:12]}" for tier, digest in zip(TIERS, digests))
            + f"  ({time.perf_counter() - started:.1f}s)"
        )
        if not same:
            mismatches.append(spec.key)
    if mismatches:
        print(f"tiers trained different bytes: {', '.join(mismatches)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
