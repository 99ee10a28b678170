"""Kernel registry: the one place that decides which kernels run.

The op stack (:mod:`repro.nn.functional`, the batch-norm layers,
:mod:`repro.nn.bitops`) routes its hot primitives through this registry.
Each kernel has two implementations:

- the **C backend** in :mod:`repro.nn.kernels.cc`, a small shared library
  built once with the system compiler, and
- the **reference** NumPy implementation in
  :mod:`repro.nn.kernels.reference`.  A kernel the backend fails to
  provide falls back to it, per kernel.

Which kernels run is this registry's choice alone; the engine tier
(``reference`` or ``compiled``) picks only the algorithm.  The backend
kernels run while the ``cc`` backend is *active* on the calling thread:
inside a ``kernels.use("cc")`` scope, or, outside any scope, unless
``REPRO_KERNEL_BACKEND=none`` (:func:`process_backend`, read on every
unscoped dispatch, so forked pool workers follow the variable they
inherit).  ``kernels.use("none")`` pins the NumPy kernels for its scope.
:class:`repro.core.bfa.BitFlipAttack` pins ``none`` for the ``reference``
tier and holds the enclosing choice for ``compiled``.  Activation is
thread-local, so a thread running on the C kernels never switches
kernels under a concurrent one pinned to NumPy.

Every backend kernel must reproduce the reference bit for bit (the golden
contract of docs/ENGINES.md); :func:`warmup` self-checks each kernel on
small inputs and drops any that disagrees.  With no backend available,
``cc`` quietly runs the reference kernels: the bytes are the same, only
slower.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Callable, ContextManager, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.nn.kernels import reference

#: Names every backend may implement (reference implements them all).
KERNEL_NAMES: Tuple[str, ...] = tuple(reference.KERNELS)

#: Loadable backends, in probe order.
BACKEND_ORDER: Tuple[str, ...] = ("cc",)

#: Values of :func:`use` and ``REPRO_KERNEL_BACKEND``; ``none`` pins NumPy.
BACKENDS: Tuple[str, ...] = BACKEND_ORDER + ("none",)

_lock = threading.RLock()
_state: Dict[str, object] = {
    "probed": False,
    "name": None,
    "kernels": {},
    "warmed": False,
}


def _load_backend(name: str) -> Optional[Dict[str, Callable]]:
    if name == "cc":
        from repro.nn.kernels import cc

        return cc.load()
    return None


def _probe() -> None:
    with _lock:
        if _state["probed"]:
            return
        # ``none`` (or an unknown name) when the process first probes
        # means the library is never built.
        forced = os.environ.get("REPRO_KERNEL_BACKEND", "").strip().lower()
        for name in (name for name in BACKEND_ORDER if forced in ("", name)):
            try:
                kernels = _load_backend(name)
            except Exception:
                kernels = None
            if kernels:
                _state["name"] = name
                _state["kernels"] = dict(kernels)
                break
        _state["probed"] = True


def available() -> bool:
    """Whether the C backend loaded."""
    _probe()
    return bool(_state["kernels"])


def backend_name() -> Optional[str]:
    """Name of the loaded backend (``"cc"``), or ``None``."""
    _probe()
    return _state["name"]


def get_kernel(name: str) -> Callable:
    """Best implementation of ``name``: backend if loaded, else reference.

    Unknown names raise ``KeyError`` — the registry is a closed set.
    """
    if name not in reference.KERNELS:
        raise KeyError(
            f"unknown kernel {name!r}; registered kernels: {sorted(reference.KERNELS)}"
        )
    _probe()
    kernels: Dict[str, Callable] = _state["kernels"]  # type: ignore[assignment]
    return kernels.get(name, reference.KERNELS[name])


def ensure_available() -> bool:
    """Whether validated backend kernels can run; warms them on first call.

    After the first call this is two dictionary reads, so the dispatch
    path may ask it every time.
    """
    if not _state["warmed"]:
        warmup()
    return bool(_state["kernels"])


# ----------------------------------------------------------------------
# Activation (thread-local, stack-based)
# ----------------------------------------------------------------------
class _Activation(threading.local):
    def __init__(self):
        self.stack = []


_ACTIVE = _Activation()


def process_backend() -> str:
    """The process-wide kernel backend: ``"none"`` if ``REPRO_KERNEL_BACKEND``
    says so, else ``"cc"``.  Read live, on every unscoped dispatch."""
    forced = os.environ.get("REPRO_KERNEL_BACKEND", "")
    return "none" if forced.strip().lower() == "none" else "cc"


def compiled_active() -> bool:
    """Whether compiled kernels dispatch on this thread right now."""
    stack = _ACTIVE.stack
    if stack:
        return stack[-1]
    return process_backend() == "cc" and ensure_available()


@contextmanager
def _scope(enabled: bool) -> Iterator[bool]:
    _ACTIVE.stack.append(enabled)
    try:
        yield enabled
    finally:
        _ACTIVE.stack.pop()


def use(backend: str) -> ContextManager[bool]:
    """Pick the kernels for the current thread in a scope.

    ``use("cc")`` enables the backend kernels, or quietly stays on the
    reference kernels when no backend is available; ``use("none")`` pins
    the reference kernels, whatever the process-wide choice.  Any other
    name raises ``ValueError``.  Yields whether compiled kernels are
    actually active.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"kernel backend must be one of {', '.join(map(repr, BACKENDS))}, got {backend!r}"
        )
    return _scope(backend == "cc" and ensure_available())


def hold() -> ContextManager[bool]:
    """Fix this thread's current dispatch decision for a scope.

    Inside an enclosing :func:`use` scope the scope's decision carries
    on; outside any scope the process-wide backend is read once here
    instead of on every dispatch.  Training and evaluation loops, which
    dispatch thousands of kernels per call, enter this once per call.
    """
    return _scope(compiled_active())


def active(name: str) -> Optional[Callable]:
    """Backend kernel ``name`` if compiled kernels are active, else ``None``."""
    if not compiled_active():
        return None
    kernels: Dict[str, Callable] = _state["kernels"]  # type: ignore[assignment]
    return kernels.get(name)


# ----------------------------------------------------------------------
# Warmup and self-validation
# ----------------------------------------------------------------------
def warmup() -> Tuple[str, ...]:
    """Run every backend kernel once and self-check bit-identity.

    Runs each backend kernel on small inputs (several stride/padding
    variants) and compares against the reference implementation with exact
    equality; a kernel that disagrees is dropped from the backend so its
    call sites fall back to reference.  Idempotent — perf harnesses call
    this before timing so build cost never lands in a timed region.

    Returns the names of the validated backend kernels.
    """
    with _lock:
        _probe()
        kernels: Dict[str, Callable] = _state["kernels"]  # type: ignore[assignment]
        if _state["warmed"] or not kernels:
            _state["warmed"] = True
            return tuple(sorted(kernels))
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 2, 9, 9))
        weight_matrix = rng.standard_normal((4, 2 * 3 * 3))
        bias = rng.standard_normal(4)
        variants = [(1, 0), (1, 1), (2, 1), (3, 2)]
        values = rng.integers(-128, 128, size=37).astype(np.int64)

        def check(name: str, run: Callable[[Callable], object]) -> None:
            impl = kernels.get(name)
            if impl is None:
                return
            try:
                got = np.asarray(run(impl))
                want = np.asarray(run(reference.KERNELS[name]))
                # Byte-level comparison: catches signed-zero and NaN
                # payload differences that ``array_equal`` would miss.
                identical = (
                    got.dtype == want.dtype
                    and got.shape == want.shape
                    and np.ascontiguousarray(got).tobytes()
                    == np.ascontiguousarray(want).tobytes()
                )
            except Exception:
                identical = False
            if not identical:
                kernels.pop(name, None)

        for stride, padding in variants:
            out_h, out_w = reference.conv2d_output_size(9, 9, (3, 3), stride, padding)
            cols = rng.standard_normal((3, 2 * 3 * 3, out_h * out_w))
            check("im2col", lambda k: k(x, (3, 3), stride, padding))
            check("col2im", lambda k: k(cols, x.shape, (3, 3), stride, padding))
            grad = rng.standard_normal((3, 4, out_h * out_w))
            check(
                "col2im",
                lambda k: k(grad, x.shape, (3, 3), stride, padding, weight_matrix),
            )
            check(
                "conv2d_forward",
                lambda k: k(x, weight_matrix, bias, (3, 3), stride, padding)[0],
            )
        check(
            "conv2d_forward",
            lambda k: k(x, weight_matrix, None, (3, 3), 1, 1)[0],
        )

        def forward_rows(forward, probe, weights):
            # Output and (N, L, K) rows; the reference keeps the columns.
            if forward is reference.conv2d_forward:
                out, cols = forward(probe, weights, bias[: len(weights)], (3, 3), 1, 0)
                rows = cols.transpose(0, 2, 1)
            else:
                out, rows = forward(
                    probe, weights, bias[: len(weights)], (3, 3), 1, 0, rows=True
                )
            return np.concatenate([out.ravel(), np.ascontiguousarray(rows).ravel()])

        # One output position and one filter: shapes np.matmul runs as a
        # gemv, which a per-sample dgemm does not reproduce.
        single_position = x[:, :, :3, :3].copy()
        for probe, weights in (
            (single_position, weight_matrix), (x, weight_matrix[:1]),
        ):
            check(
                "conv2d_forward",
                lambda k: k(probe, weights, bias[: len(weights)], (3, 3), 1, 0)[0],
            )
            check("conv2d_forward", lambda k: forward_rows(k, probe, weights))

        def conv_grads(backward, probe, weights, kernel, stride, padding):
            # A backend's conv2d_backward reads the rows its own forward
            # kept; the reference pair reads the columns.
            if backward is reference.conv2d_backward:
                _, saved = reference.conv2d_forward(probe, weights, None, kernel, stride, padding)
            else:
                _, saved = kernels["conv2d_forward"](
                    probe, weights, None, kernel, stride, padding, rows=True
                )
            out_h, out_w = reference.conv2d_output_size(
                probe.shape[2], probe.shape[3], kernel, stride, padding
            )
            grad = np.random.default_rng(1).standard_normal(
                (probe.shape[0], weights.shape[0], out_h * out_w)
            )
            grad_weight, grad_x = backward(
                grad, saved, weights, probe.shape, kernel, stride, padding
            )
            return np.concatenate([grad_weight.ravel(), grad_x.ravel()])

        if "conv2d_forward" not in kernels:
            # The backward is only valid paired with this backend's forward.
            kernels.pop("conv2d_backward", None)
        for batch, channels, kernel, stride, padding in (
            (3, 2, (3, 3), 1, 1), (3, 2, (3, 3), 2, 1), (3, 4, (1, 1), 2, 0), (1, 2, (3, 3), 1, 0),
        ):
            probe = rng.standard_normal((batch, channels, 9, 9))
            weights = rng.standard_normal((4, channels * kernel[0] * kernel[1]))
            check(
                "conv2d_backward",
                lambda k: conv_grads(k, probe, weights, kernel, stride, padding),
            )
        scale = rng.standard_normal(2)
        shift = rng.standard_normal(2)
        check("bn_fold", lambda k: k(x, scale, shift))
        bn_weight = rng.standard_normal(2)
        bn_bias = rng.standard_normal(2)
        bn_mean = rng.standard_normal(2)
        bn_var = rng.random(2) + 0.5
        check("bn_infer", lambda k: k(x, bn_weight, bn_bias, bn_mean, bn_var, 1e-5))
        bn_probe = x.copy()
        bn_probe[0, 0, 0, :3] = (0.0, -0.0, np.nan)
        bn_other = rng.standard_normal(x.shape)
        bn_std = rng.random(2) + 0.5
        check("bn_normalize", lambda k: np.stack(k(bn_probe, bn_std, bn_weight, bn_bias)))
        for weight_terms in (True, False):
            check(
                "bn_grad_terms",
                lambda k: np.stack([
                    term for term in k(
                        bn_probe, bn_other, x, bn_weight, bn_std, bn_std ** 2, weight_terms
                    ) if term is not None
                ]),
            )
        check(
            "bn_grad_input",
            lambda k: k(bn_probe.copy(), bn_mean, bn_other, bn_var, None),
        )
        check(
            "bn_grad_input",
            lambda k: k(bn_probe, bn_mean, bn_other, bn_var, x.copy()),
        )
        relu_probe = x.copy()
        relu_probe[0, 0, 0, :3] = (0.0, -0.0, np.nan)
        check("relu", lambda k: k(relu_probe))
        check("delta_table", lambda k: k(values, 8))
        check("delta_table", lambda k: k(values % 4, 3))
        check("delta_column", lambda k: k(-77, 8))
        if not kernels:
            _state["name"] = None
        _state["warmed"] = True
        return tuple(sorted(kernels))


# ----------------------------------------------------------------------
# Per-thread im2col scratch pool
# ----------------------------------------------------------------------
class _Scratch(threading.local):
    def __init__(self):
        self.buffers = {}


_SCRATCH = _Scratch()


def scratch_buffer(name: str, shape: Tuple[int, ...]) -> np.ndarray:
    """A per-thread float64 buffer reused across same-shape requests.

    Callers must fully overwrite the buffer and must not let it escape the
    call — the conv forward only uses it when no backward closure can
    retain the columns (gradient-free forwards), so the next same-shape
    call may freely clobber it.
    """
    buffers = _SCRATCH.buffers
    key = (name, shape)
    buffer = buffers.get(key)
    if buffer is None:
        buffer = np.empty(shape)
        buffers[key] = buffer
    return buffer


def clear_scratch() -> None:
    """Drop this thread's scratch buffers (tests / memory pressure)."""
    _SCRATCH.buffers.clear()


# ----------------------------------------------------------------------
# im2col memo for repeated same-input forwards (compiled kernels only)
# ----------------------------------------------------------------------
class _Memo(threading.local):
    def __init__(self):
        self.scope = None


_MEMO = _Memo()


@contextmanager
def im2col_memo() -> Iterator[Optional[dict]]:
    """Reuse im2col columns across forwards that share the same input.

    The stacked suffix cascade (`SuffixEvaluator.peek_many`) runs a trial
    group's flipped stage once per trial on the *same* cached boundary
    array — only the stage's weights differ between runs, and im2col does
    not depend on weights.  Inside this scope :func:`conv2d_forward` keeps
    one ``(input, cols)`` entry per conv signature and skips the gather
    when the same input array object comes back.  Correctness guards:

    - hits require the stored input to be the *same object* (``is``), and
      the scope holds a strong reference so its id cannot be recycled;
    - the caller must not mutate conv inputs in place within the scope
      (stage forwards allocate fresh activations, so this holds);
    - the scratch pool is bypassed for memoised columns — a later
      same-shape conv would clobber a shared scratch buffer.

    Active only while compiled kernels dispatch (the cascade's stage
    loop is a compiled-engine hot path); otherwise a no-op.  Memory is
    bounded at one cols buffer per distinct conv signature and released
    when the scope exits.
    """
    if _MEMO.scope is not None or not compiled_active():
        # Nested scopes keep the outer memo; the NumPy kernels skip it.
        yield _MEMO.scope
        return
    _MEMO.scope = {}
    try:
        yield _MEMO.scope
    finally:
        _MEMO.scope = None


# ----------------------------------------------------------------------
# Dispatching convenience wrappers used by the op stack
# ----------------------------------------------------------------------
def im2col(x, kernel, stride, padding, out=None):
    """Registry-dispatched im2col (compiled when active, else reference)."""
    impl = active("im2col")
    if impl is None:
        return reference.im2col(x, kernel, stride, padding, out)
    return impl(x, kernel, stride, padding, out)


def col2im(cols, input_shape, kernel, stride, padding, weight_matrix=None):
    """Registry-dispatched col2im (compiled when active, else reference).

    ``weight_matrix`` makes it the conv input gradient: ``cols`` is then
    the ``(N, F, L)`` output gradient (see :func:`reference.col2im`).
    """
    impl = active("col2im")
    if impl is None:
        return reference.col2im(cols, input_shape, kernel, stride, padding, weight_matrix)
    return impl(cols, input_shape, kernel, stride, padding, weight_matrix)


def conv2d_forward(
    x, weight_matrix, bias, kernel, stride, padding, reuse_scratch=False, rows=False
):
    """Registry-dispatched conv forward returning ``(out, cols)``.

    ``reuse_scratch=True`` routes the im2col columns into the per-thread
    scratch pool — only safe when the caller will not retain ``cols``
    (no backward closure), which :func:`repro.nn.functional.conv2d`
    guarantees by checking grad mode and ``requires_grad``.

    ``rows=True`` asks the active backend forward for the transposed
    ``(N, L, K)`` rows its ``conv2d_backward`` reads instead of the
    columns (see :func:`conv2d_train_forward`, the only caller); the memo
    is bypassed.

    Inside an :func:`im2col_memo` scope, a repeated forward on the *same*
    input array reuses its memoised columns and runs only the GEMM + bias
    (``np.matmul`` per-sample semantics — the identical accumulation the
    backends perform).
    """
    if rows:
        return active("conv2d_forward")(
            x, weight_matrix, bias, kernel, stride, padding, rows=True
        )
    memo = _MEMO.scope
    if memo is not None:
        key = (x.shape, kernel, stride, padding)
        hit = memo.get(key)
        if hit is not None and hit[0] is x:
            cols = hit[1]
            out = np.matmul(weight_matrix, cols)
            if bias is not None:
                out = out + bias.reshape(1, -1, 1)
            return out, cols
    cols_out = None
    if reuse_scratch and memo is None:
        batch, channels = x.shape[0], x.shape[1]
        kh, kw = kernel
        out_h, out_w = reference.conv2d_output_size(
            x.shape[2], x.shape[3], kernel, stride, padding
        )
        cols_out = scratch_buffer(
            "im2col", (batch, channels * kh * kw, out_h * out_w)
        )
    impl = active("conv2d_forward")
    if impl is None:
        result = reference.conv2d_forward(
            x, weight_matrix, bias, kernel, stride, padding, cols_out
        )
    else:
        result = impl(x, weight_matrix, bias, kernel, stride, padding, cols_out)
    if memo is not None:
        memo[(x.shape, kernel, stride, padding)] = (x, result[1])
    return result


def conv2d_train_forward(x, weight_matrix, bias, kernel, stride, padding, weight_grad):
    """Grad-mode conv forward paired with the backward that reads what it kept.

    Returns ``(out, backward)`` where ``backward(grad, input_grad)`` maps
    the ``(N, F, L)`` output gradient to ``(grad_weight, grad_x)``;
    ``grad_weight`` is ``None`` unless ``weight_grad``.  A backend that
    provides ``conv2d_backward`` keeps the forward's im2col *rows*
    ``(N, L, K)`` — the operand the weight-gradient GEMM reads — instead
    of the columns; otherwise both halves fall back together to the
    columns and the reference backward.  The pair is fixed here, at
    forward time, so switching kernels between forward and backward can
    never hand one layout to the other's kernel.  Without ``weight_grad``
    nothing is kept and the columns go to the scratch pool.
    """
    backward = active("conv2d_backward")
    rows = weight_grad and backward is not None and active("conv2d_forward") is not None
    out, saved = conv2d_forward(
        x, weight_matrix, bias, kernel, stride, padding,
        reuse_scratch=not weight_grad, rows=rows,
    )
    if not rows:
        backward = reference.conv2d_backward
    if not weight_grad:
        saved = None
    input_shape = x.shape

    def run(grad, input_grad):
        # The input gradient's scatter goes through the registry's col2im.
        return backward(
            grad, saved, weight_matrix, input_shape, kernel, stride, padding,
            input_grad, col2im,
        )

    return out, run


def bn_fold(x, scale, shift):
    """Registry-dispatched folded batch-norm ``x * scale + shift``."""
    impl = active("bn_fold")
    if impl is None:
        return reference.bn_fold(x, scale, shift)
    return impl(x, scale, shift)


def bn_infer(x, weight, bias, mean, var, eps):
    """Registry-dispatched inference batch-norm from raw statistics."""
    impl = active("bn_infer")
    if impl is None:
        return reference.bn_infer(x, weight, bias, mean, var, eps)
    return impl(x, weight, bias, mean, var, eps)


def bn_normalize(centered, std, weight, bias):
    """Registry-dispatched training batch-norm output pass."""
    impl = active("bn_normalize")
    if impl is None:
        return reference.bn_normalize(centered, std, weight, bias)
    return impl(centered, std, weight, bias)


def bn_grad_terms(grad, normalised, centered, weight, std, std_sq, weight_terms=True):
    """Registry-dispatched training batch-norm backward terms."""
    impl = active("bn_grad_terms")
    if impl is None:
        return reference.bn_grad_terms(
            grad, normalised, centered, weight, std, std_sq, weight_terms
        )
    return impl(grad, normalised, centered, weight, std, std_sq, weight_terms)


def bn_grad_input(grad_var_centered, var_mean, grad_centered, mean, accum=None):
    """Registry-dispatched training batch-norm input-gradient accumulation."""
    impl = active("bn_grad_input")
    if impl is None:
        return reference.bn_grad_input(grad_var_centered, var_mean, grad_centered, mean, accum)
    return impl(grad_var_centered, var_mean, grad_centered, mean, accum)


def relu(x):
    """Registry-dispatched mask-multiply ReLU."""
    impl = active("relu")
    if impl is None:
        return reference.relu(x)
    return impl(x)


def delta_table(values, num_bits):
    """Registry-dispatched flip-delta table construction."""
    impl = active("delta_table")
    if impl is None:
        return reference.delta_table(values, num_bits)
    return impl(values, num_bits)


def delta_column(value, num_bits):
    """Registry-dispatched single-column flip-delta recompute."""
    impl = active("delta_column")
    if impl is None:
        return reference.delta_column(value, num_bits)
    return impl(value, num_bits)


def _reset_for_tests() -> None:
    """Forget the probed backend and scratch state (test helper)."""
    with _lock:
        _state.update(probed=False, name=None, kernels={}, warmed=False)
    _ACTIVE.stack.clear()
    clear_scratch()
