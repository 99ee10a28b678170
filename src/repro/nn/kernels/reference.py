"""Pure-NumPy reference implementations of the registered kernels.

Every kernel the compiled backends provide has a reference implementation
here with the same signature and — critically — the same floating-point
accumulation order.  The registry falls back to these per kernel, so a
partially available backend (or no backend at all) degrades gracefully
without changing a single bit of any result.

Accumulation-order contract (see docs/ENGINES.md):

- ``im2col`` / ``conv2d_forward``: patches are gathered per sample and fed
  to one fixed-shape GEMM per sample (``np.matmul`` broadcast semantics),
  so per-sample outputs are independent of how many samples are stacked.
- ``conv2d_forward`` adds the bias *after* the GEMM in a separate pass —
  one extra rounding per element, never fused into the GEMM epilogue.
- ``conv2d_backward`` computes the weight gradient as one GEMM over the
  (sample, position) axes — ``np.tensordot``'s ``(F, N·L) @ (N·L, K)``
  product — and the input gradient as one ``W.T @ grad[n]`` GEMM per
  sample (``np.matmul`` broadcast semantics) followed by ``col2im``.
- ``col2im`` accumulates kernel taps in ``(i, j)`` row-major order; every
  output element sees its contributions in exactly that order.
- ``bn_fold`` computes ``x * scale`` (one rounding) then ``+ shift``
  (a second rounding); compiled versions must not contract this into an
  FMA, which would round once and break bit-identity.
- ``bn_normalize`` / ``bn_grad_terms`` / ``bn_grad_input`` are the
  elementwise chains of training-mode batch norm (the reductions between
  them stay in NumPy); each op rounds once, in the composed graph's order,
  and ``bn_grad_input`` adds ``x``'s gradient terms one at a time, in the
  order the graph accumulates them.
- ``delta_table`` / ``delta_column`` are pure int64 arithmetic — exact by
  construction in any backend.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def conv2d_output_size(
    height: int, width: int, kernel: Tuple[int, int], stride: int, padding: int
) -> Tuple[int, int]:
    """Spatial output size of a 2-D convolution (raises when empty)."""
    out_h = (height + 2 * padding - kernel[0]) // stride + 1
    out_w = (width + 2 * padding - kernel[1]) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"convolution output would be empty: input {height}x{width}, "
            f"kernel {kernel}, stride {stride}, padding {padding}"
        )
    return out_h, out_w


def im2col(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: int,
    padding: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Rearrange ``(N, C, H, W)`` patches into ``(N, C*kh*kw, out_h*out_w)``.

    ``out``, when given, must be a C-contiguous float64 buffer of the result
    shape; the columns are written into it instead of a fresh allocation
    (the scratch-pool path for gradient-free forwards).
    """
    batch, channels, height, width = x.shape
    kh, kw = kernel
    out_h, out_w = conv2d_output_size(height, width, kernel, stride, padding)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    strides = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(batch, channels, out_h, out_w, kh, kw),
        strides=(strides[0], strides[1], strides[2] * stride, strides[3] * stride, strides[2], strides[3]),
        writeable=False,
    )
    # (N, C, kh, kw, out_h, out_w) -> (N, C*kh*kw, out_h*out_w)
    patches = windows.transpose(0, 1, 4, 5, 2, 3)
    if out is None:
        return np.ascontiguousarray(patches).reshape(
            batch, channels * kh * kw, out_h * out_w
        )
    np.copyto(out.reshape(batch, channels, kh, kw, out_h, out_w), patches)
    return out


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: int,
    padding: int,
    weight_matrix: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Scatter-add columns back into image space (adjoint of :func:`im2col`).

    With ``weight_matrix`` ``(F, K)``, ``cols`` is an ``(N, F, L)`` output
    gradient and the columns scattered are its per-sample products
    ``weight_matrix.T @ cols[n]`` (``np.matmul`` semantics): the conv
    input gradient in one call, which a backend may fuse.
    """
    if weight_matrix is not None:
        cols = np.matmul(weight_matrix.T, cols)
    batch, channels, height, width = input_shape
    kh, kw = kernel
    out_h, out_w = conv2d_output_size(height, width, kernel, stride, padding)
    padded = np.zeros((batch, channels, height + 2 * padding, width + 2 * padding))
    cols = cols.reshape(batch, channels, kh, kw, out_h, out_w)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += cols[:, :, i, j]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def conv2d_forward(
    x: np.ndarray,
    weight_matrix: np.ndarray,
    bias: Optional[np.ndarray],
    kernel: Tuple[int, int],
    stride: int,
    padding: int,
    cols_out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Forward convolution: im2col + per-sample GEMM + separate bias pass.

    Returns ``(out, cols)`` where ``out`` has shape ``(N, F, out_h*out_w)``
    and ``cols`` is the im2col matrix (needed by the backward pass; it
    aliases ``cols_out`` when that scratch buffer is provided).
    """
    cols = im2col(x, kernel, stride, padding, out=cols_out)
    # Broadcast GEMM: one (F, K) @ (K, L) product per sample.  BLAS-fast,
    # and — because every sample's GEMM has the same fixed shape no matter
    # how many samples are stacked — per-sample results are independent of
    # the leading dimension, which the stacked trial evaluation
    # (SuffixEvaluator.peek_many) relies on for bit-identical suffixes.
    out = np.matmul(weight_matrix, cols)  # (N, F, L)
    if bias is not None:
        out += bias.reshape(1, -1, 1)
    return out, cols


def conv2d_backward(
    grad: np.ndarray,
    cols: Optional[np.ndarray],
    weight_matrix: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: int,
    padding: int,
    input_grad: bool = True,
    col2im_impl=None,
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Backward convolution: ``(grad_weight, grad_x)`` from the saved columns.

    ``grad`` is the ``(N, F, L)`` output gradient and ``cols`` the
    forward's im2col matrix, or ``None`` when no weight gradient is wanted
    (``grad_weight`` is then ``None``); ``input_grad=False`` skips the
    input gradient, computed by ``col2im`` with the weight operand.
    ``col2im_impl`` lets the registry route that call through its own
    dispatcher (bit-identical by contract).
    """
    grad_weight = None
    if cols is not None:
        # One GEMM over the (sample, position) axes — no (N, F, K)
        # intermediate like a broadcast matmul + sum would allocate.
        grad_weight = np.tensordot(grad, cols, axes=([0, 2], [0, 2]))
    grad_x = None
    if input_grad:
        grad_x = (col2im_impl or col2im)(
            grad, input_shape, kernel, stride, padding, weight_matrix
        )
    return grad_weight, grad_x


def bn_fold(x: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Folded inference batch-norm: ``x * scale + shift`` per channel.

    ``scale`` and ``shift`` are 1-D per-channel vectors broadcast over
    axis 1 of ``x``; the multiply and the add each round separately.
    """
    broadcast = (1, scale.size) + (1,) * (x.ndim - 2)
    out = x * scale.reshape(broadcast)
    out += shift.reshape(broadcast)
    return out


def bn_infer(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    eps: float,
) -> np.ndarray:
    """Inference batch-norm from raw statistics: fold then apply.

    ``scale``/``shift`` derivation uses the exact elementwise composition
    the batch-norm layer's inference branch performs (add, sqrt, divide,
    multiply, subtract — each correctly rounded), followed by
    :func:`bn_fold`'s multiply-then-add, so a backend implementing the
    same steps is bit-identical end to end.
    """
    inv_std = 1.0 / np.sqrt(var + eps)
    scale = weight * inv_std
    shift = bias - mean * scale
    return bn_fold(x, scale, shift)


def _channel(vector: np.ndarray, ndim: int) -> np.ndarray:
    """A per-channel vector shaped to broadcast over axis 1."""
    return vector.reshape((1, vector.size) + (1,) * (ndim - 2))


def bn_normalize(
    centered: np.ndarray, std: np.ndarray, weight: np.ndarray, bias: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Training batch-norm output: ``(normalised, normalised * weight + bias)``.

    ``centered`` is ``x - mean``; ``std``, ``weight`` and ``bias`` are
    per-channel vectors.  Divide, multiply and add each round once.
    """
    normalised = centered / _channel(std, centered.ndim)
    return normalised, normalised * _channel(weight, centered.ndim) + _channel(bias, centered.ndim)


def bn_grad_terms(
    grad: np.ndarray,
    normalised: np.ndarray,
    centered: np.ndarray,
    weight: np.ndarray,
    std: np.ndarray,
    std_sq: np.ndarray,
    weight_terms: bool = True,
) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
    """The full-size terms of training batch norm's backward.

    With ``g = grad * weight``: ``grad * normalised`` (summed into the
    weight gradient; ``None`` unless ``weight_terms``), ``g / std`` (the
    gradient of ``x - mean``) and ``-g * centered / std_sq`` (summed into
    the gradient of ``std``).
    """
    ndim = grad.ndim
    grad_normalised = grad * _channel(weight, ndim)
    return (
        grad * normalised if weight_terms else None,
        grad_normalised / _channel(std, ndim),
        -grad_normalised * centered / _channel(std_sq, ndim),
    )


def bn_grad_input(
    grad_var_centered: np.ndarray,
    var_mean: np.ndarray,
    grad_centered: np.ndarray,
    mean: np.ndarray,
    accum: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Accumulate training batch norm's four ``x`` gradient terms.

    Adds, one rounding each and in this order, ``grad_var_centered``, the
    per-channel ``var_mean``, ``grad_centered`` and the per-channel
    ``mean`` into ``accum``; without ``accum`` the sum builds in place in
    ``grad_var_centered``.  Returns the accumulated array.
    """
    ndim = grad_centered.ndim
    if accum is None:
        accum = grad_var_centered
    else:
        accum += grad_var_centered
    accum += _channel(var_mean, ndim)
    accum += grad_centered
    accum += _channel(mean, ndim)
    return accum


def relu(x: np.ndarray) -> np.ndarray:
    """ReLU with multiply-by-mask semantics: ``x * (x > 0)``.

    Negative inputs map to ``-0.0`` and NaN propagates, exactly like the
    autograd mask composition; backends must preserve both.
    """
    return x * (x > 0)


def delta_table(values: np.ndarray, num_bits: int) -> np.ndarray:
    """``(num_bits, size)`` signed value change for every single-bit flip.

    ``values`` must already be flat int64 within the ``num_bits`` range;
    validation lives in :func:`repro.nn.bitops.bit_flip_delta_table`.
    """
    mask = (1 << num_bits) - 1
    patterns = values & mask
    bit_positions = np.arange(num_bits, dtype=np.int64)[:, None]
    bits = (patterns[None, :] >> bit_positions) & 1
    magnitudes = np.int64(1) << bit_positions
    table = np.where(bits == 1, -magnitudes, magnitudes)
    # Sign bit: setting it subtracts 2**bit, clearing it adds 2**bit.
    table[num_bits - 1] = -table[num_bits - 1]
    return table


def delta_column(value: int, num_bits: int) -> np.ndarray:
    """One column of :func:`delta_table` for a single integer value."""
    return delta_table(np.asarray([value], dtype=np.int64), num_bits)[:, 0]


KERNELS = {
    "im2col": im2col,
    "col2im": col2im,
    "conv2d_forward": conv2d_forward,
    "conv2d_backward": conv2d_backward,
    "bn_fold": bn_fold,
    "bn_infer": bn_infer,
    "bn_normalize": bn_normalize,
    "bn_grad_terms": bn_grad_terms,
    "bn_grad_input": bn_grad_input,
    "relu": relu,
    "delta_table": delta_table,
    "delta_column": delta_column,
}
