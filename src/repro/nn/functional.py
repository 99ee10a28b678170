"""Differentiable neural-network operations built on the autograd engine.

Convolutions and pooling are implemented as custom graph nodes using
im2col/col2im so that the heavy lifting stays inside vectorised numpy calls
(batch norm and layer norm are custom nodes too, in
:mod:`repro.nn.layers.norm`); everything else (attention, losses) is
composed from the :class:`~repro.nn.autograd.Tensor` primitives inside
the layer classes.

The convolution primitives dispatch through the kernel registry
(:mod:`repro.nn.kernels`): with the compiled tier active they run the
Numba/C backend kernels, otherwise the NumPy reference implementations —
which are bit-identical by the golden contract, so the dispatch point is
invisible to every caller.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn import kernels
from repro.nn.autograd import Tensor, is_grad_enabled
from repro.nn.kernels.reference import conv2d_output_size as _conv2d_output_size


# ----------------------------------------------------------------------
# im2col / col2im helpers (2-D)
# ----------------------------------------------------------------------
def im2col(x: np.ndarray, kernel: Tuple[int, int], stride: int, padding: int) -> np.ndarray:
    """Rearrange image patches into columns.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.

    Returns
    -------
    Array of shape ``(N, C * kh * kw, out_h * out_w)``.
    """
    return kernels.im2col(x, kernel, stride, padding)


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: int,
    padding: int,
) -> np.ndarray:
    """Scatter-add columns back into image space (adjoint of :func:`im2col`)."""
    return kernels.col2im(cols, input_shape, kernel, stride, padding)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution over ``(N, C, H, W)`` inputs."""
    batch, in_channels, height, width = x.shape
    out_channels, weight_in_channels, kh, kw = weight.shape
    if weight_in_channels != in_channels:
        raise ValueError(
            f"weight expects {weight_in_channels} input channels, input has {in_channels}"
        )
    out_h, out_w = _conv2d_output_size(height, width, (kh, kw), stride, padding)

    weight_matrix = weight.data.reshape(out_channels, -1)  # (F, C*kh*kw)
    needs_grad = is_grad_enabled() and (
        x.requires_grad
        or weight.requires_grad
        or (bias is not None and bias.requires_grad)
    )
    bias_data = None if bias is None else bias.data
    if not needs_grad:
        # No backward closure can be recorded (no_grad, or no parent
        # requires grad), so nothing retains the im2col columns past this
        # call: they go into a per-thread scratch buffer reused across
        # same-shape forwards instead of a fresh allocation.
        out, _ = kernels.conv2d_forward(
            x.data, weight_matrix, bias_data, (kh, kw), stride, padding, reuse_scratch=True
        )
        return Tensor(out.reshape(batch, out_channels, out_h, out_w))
    out, conv_backward = kernels.conv2d_train_forward(
        x.data, weight_matrix, bias_data, (kh, kw), stride, padding, weight.requires_grad
    )
    out = out.reshape(batch, out_channels, out_h, out_w)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad_flat = grad.reshape(batch, out_channels, out_h * out_w)
        grad_weight, grad_x = conv_backward(grad_flat, x.requires_grad)
        if grad_weight is not None:
            weight._accumulate(grad_weight.reshape(weight.shape), fresh=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_flat.sum(axis=(0, 2)), fresh=True)
        if grad_x is not None:
            x._accumulate(grad_x, fresh=True)

    return Tensor._make(out, parents, backward)


# ----------------------------------------------------------------------
# 1-D convolution (for the M11 audio model)
# ----------------------------------------------------------------------
def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """1-D convolution over ``(N, C, L)`` inputs, implemented via conv2d."""
    batch, channels, length = x.shape
    x4 = Tensor._make(
        x.data.reshape(batch, channels, 1, length),
        (x,),
        lambda grad: x._accumulate(grad.reshape(x.shape)),
    ) if x.requires_grad else Tensor(x.data.reshape(batch, channels, 1, length))
    out_channels, _, kernel = weight.shape
    w4 = Tensor._make(
        weight.data.reshape(out_channels, channels, 1, kernel),
        (weight,),
        lambda grad: weight._accumulate(grad.reshape(weight.shape)),
    ) if weight.requires_grad else Tensor(weight.data.reshape(out_channels, channels, 1, kernel))
    out = conv2d(x4, w4, bias=bias, stride=stride, padding=0) if padding == 0 else None
    if padding > 0:
        padded = x4.pad(((0, 0), (0, 0), (0, 0), (padding, padding)))
        out = conv2d(padded, w4, bias=bias, stride=stride, padding=0)
    batch_out, out_c, _, out_len = out.shape
    return out.reshape(batch_out, out_c, out_len)


# ----------------------------------------------------------------------
# Pooling
# ----------------------------------------------------------------------
def max_pool2d(x: Tensor, kernel: int = 2, stride: Optional[int] = None) -> Tensor:
    """Max pooling with square windows (kernel == stride, non-overlapping)."""
    stride = stride or kernel
    if stride != kernel:
        raise ValueError("max_pool2d currently supports non-overlapping windows only")
    batch, channels, height, width = x.shape
    if height % kernel or width % kernel:
        raise ValueError(
            f"input spatial dims ({height}x{width}) must be divisible by the pool size {kernel}"
        )
    out_h, out_w = height // kernel, width // kernel
    reshaped = x.data.reshape(batch, channels, out_h, kernel, out_w, kernel)
    windows = reshaped.transpose(0, 1, 2, 4, 3, 5).reshape(batch, channels, out_h, out_w, kernel * kernel)
    out = windows.max(axis=-1)
    argmax = windows.argmax(axis=-1)

    def backward(grad: np.ndarray) -> None:
        grad_windows = np.zeros_like(windows)
        flat_index = np.indices(argmax.shape)
        grad_windows[flat_index[0], flat_index[1], flat_index[2], flat_index[3], argmax] = grad
        grad_x = (
            grad_windows.reshape(batch, channels, out_h, out_w, kernel, kernel)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(batch, channels, height, width)
        )
        x._accumulate(grad_x)

    return Tensor._make(out, (x,), backward)


def max_pool1d(x: Tensor, kernel: int = 2) -> Tensor:
    """Non-overlapping 1-D max pooling over ``(N, C, L)`` inputs."""
    batch, channels, length = x.shape
    if length % kernel:
        raise ValueError(f"input length {length} must be divisible by the pool size {kernel}")
    out_len = length // kernel
    windows = x.data.reshape(batch, channels, out_len, kernel)
    out = windows.max(axis=-1)
    argmax = windows.argmax(axis=-1)

    def backward(grad: np.ndarray) -> None:
        grad_windows = np.zeros_like(windows)
        index = np.indices(argmax.shape)
        grad_windows[index[0], index[1], index[2], argmax] = grad
        x._accumulate(grad_windows.reshape(batch, channels, length))

    return Tensor._make(out, (x,), backward)


def avg_pool2d(x: Tensor, kernel: int = 2) -> Tensor:
    """Non-overlapping 2-D average pooling."""
    batch, channels, height, width = x.shape
    if height % kernel or width % kernel:
        raise ValueError(
            f"input spatial dims ({height}x{width}) must be divisible by the pool size {kernel}"
        )
    out_h, out_w = height // kernel, width // kernel
    reshaped = x.reshape(batch, channels, out_h, kernel, out_w, kernel)
    return reshaped.mean(axis=(3, 5))


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the spatial dimensions of a ``(N, C, H, W)`` tensor."""
    return x.mean(axis=(2, 3))


def global_avg_pool1d(x: Tensor) -> Tensor:
    """Average over the temporal dimension of a ``(N, C, L)`` tensor."""
    return x.mean(axis=2)


# ----------------------------------------------------------------------
# Misc
# ----------------------------------------------------------------------
def _rowstable_matmul_2d(x: Tensor, weight: Tensor) -> Tensor:
    """``x (N, D) @ weight.T (D, C)`` with rows independent of ``N``.

    BLAS ``matmul`` kernels pick M-dependent blocking, so the *same row*
    can round differently (by an ulp) once the leading dimension crosses a
    kernel threshold.  The stacked trial evaluation
    (:meth:`repro.nn.inference.SuffixEvaluator.peek_many`) feeds suffix
    stages batches whose leading dimension is ``num_trials × batch``, and
    its per-trial rows must be bit-identical to the unstacked forward —
    ``einsum`` guarantees that by iterating the contraction in a fixed
    per-element order regardless of ``N``.  The 2-D case only carries
    classifier heads (tiny ``D × C``), so the BLAS throughput loss is
    negligible; 3-D token inputs stay on ``matmul``, whose broadcast path
    runs one GEMM per sample and is therefore already row-stable.
    """
    out = np.einsum("nd,cd->nc", x.data, weight.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad @ weight.data, fresh=True)
        if weight.requires_grad:
            weight._accumulate(grad.T @ x.data, fresh=True)

    return Tensor._make(out, (x, weight), backward)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine transform ``x @ weight.T + bias`` for 2-D or 3-D inputs."""
    if x.ndim == 2:
        out = _rowstable_matmul_2d(x, weight)
    else:
        out = x.matmul(weight.transpose(1, 0))
    if bias is not None:
        out = out + bias
    return out


def flatten(x: Tensor) -> Tensor:
    """Flatten all but the batch dimension."""
    return x.reshape(x.shape[0], -1)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Dense one-hot encoding of integer class labels."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels out of range for the given number of classes")
    encoded = np.zeros((labels.size, num_classes))
    encoded[np.arange(labels.size), labels] = 1.0
    return encoded
