"""Numba-JIT kernel backend (preferred when ``numba`` is importable).

The import is lazy and failure-tolerant: :func:`load` returns ``None`` on
any import or compilation-setup error and the registry moves on to the
next backend.  Kernels are compiled with ``cache=True`` so the JIT cost is
paid once per machine, and ``parallel=True`` only where the parallel axis
carries no cross-iteration floating-point accumulation — each ``prange``
below parallelises over samples (or table rows), whose outputs are
disjoint, so the per-element reduction order is exactly the reference
order regardless of thread count.

No BLAS runs inside Numba: ``np.dot`` under njit links a *different*
OpenBLAS build than NumPy's bundled one, which could round differently.
The conv forward therefore JITs only the data movement (im2col) and
finishes with the same Python-level ``np.matmul`` + separate bias pass as
the reference kernel — bit-identical by construction.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.nn.kernels import reference


def _build(numba) -> Dict[str, Callable]:
    njit = numba.njit
    prange = numba.prange

    @njit(cache=True, parallel=True)
    def im2col_jit(x, kh, kw, stride, pad, out_h, out_w, cols):
        batch, channels, height, width = x.shape
        for b in prange(batch):
            for ch in range(channels):
                for i in range(kh):
                    for j in range(kw):
                        row = (ch * kh + i) * kw + j
                        for oy in range(out_h):
                            iy = oy * stride + i - pad
                            base = oy * out_w
                            if iy < 0 or iy >= height:
                                for ox in range(out_w):
                                    cols[b, row, base + ox] = 0.0
                                continue
                            for ox in range(out_w):
                                ix = ox * stride + j - pad
                                if 0 <= ix < width:
                                    cols[b, row, base + ox] = x[b, ch, iy, ix]
                                else:
                                    cols[b, row, base + ox] = 0.0

    @njit(cache=True, parallel=True)
    def col2im_jit(cols, padded, kh, kw, stride, out_h, out_w):
        batch, channels = padded.shape[0], padded.shape[1]
        # Taps accumulate in (i, j) row-major order per output element —
        # the reference addition order; prange only splits disjoint samples.
        for b in prange(batch):
            for ch in range(channels):
                for i in range(kh):
                    for j in range(kw):
                        row = (ch * kh + i) * kw + j
                        for oy in range(out_h):
                            for ox in range(out_w):
                                padded[b, ch, i + oy * stride, j + ox * stride] += (
                                    cols[b, row, oy * out_w + ox]
                                )

    @njit(cache=True, parallel=True)
    def bn_fold_jit(x, scale, shift, out):
        batch, channels, spatial = x.shape
        for b in prange(batch):
            for ch in range(channels):
                sc = scale[ch]
                sh = shift[ch]
                for s in range(spatial):
                    t = x[b, ch, s] * sc
                    out[b, ch, s] = t + sh

    @njit(cache=True, parallel=True)
    def relu_jit(x, out):
        # x * (x > 0) semantics: -0.0 for negatives, NaN propagates.
        for i in prange(x.size):
            v = x[i]
            out[i] = v if v > 0.0 else v * 0.0

    @njit(cache=True, parallel=True)
    def delta_table_jit(values, num_bits, table):
        mask = (np.int64(1) << num_bits) - 1
        for b in prange(num_bits):
            mag = np.int64(1) << b
            sign_bit = b == num_bits - 1
            for i in range(values.size):
                bit = ((values[i] & mask) >> b) & 1
                delta = -mag if bit else mag
                table[b, i] = -delta if sign_bit else delta

    def im2col(x, kernel, stride, padding, out=None):
        batch, channels, height, width = x.shape
        kh, kw = kernel
        out_h, out_w = reference.conv2d_output_size(height, width, kernel, stride, padding)
        x = np.ascontiguousarray(x, dtype=np.float64)
        if out is None:
            out = np.empty((batch, channels * kh * kw, out_h * out_w))
        im2col_jit(x, kh, kw, stride, padding, out_h, out_w, out)
        return out

    def col2im(cols, input_shape, kernel, stride, padding, weight_matrix=None):
        if weight_matrix is not None:
            # No BLAS under njit: the reference's np.matmul, then the JIT scatter.
            cols = np.matmul(weight_matrix.T, cols)
        batch, channels, height, width = input_shape
        kh, kw = kernel
        out_h, out_w = reference.conv2d_output_size(height, width, kernel, stride, padding)
        cols = np.ascontiguousarray(cols, dtype=np.float64)
        padded = np.zeros((batch, channels, height + 2 * padding, width + 2 * padding))
        col2im_jit(cols, padded, kh, kw, stride, out_h, out_w)
        if padding > 0:
            return padded[:, :, padding:-padding, padding:-padding]
        return padded

    def conv2d_forward(x, weight_matrix, bias, kernel, stride, padding, cols_out=None):
        cols = im2col(x, kernel, stride, padding, out=cols_out)
        out = np.matmul(weight_matrix, cols)
        if bias is not None:
            out += bias.reshape(1, -1, 1)
        return out, cols

    def bn_fold(x, scale, shift):
        x = np.ascontiguousarray(x, dtype=np.float64)
        batch, channels = x.shape[0], x.shape[1]
        spatial = int(np.prod(x.shape[2:], dtype=np.int64)) if x.ndim > 2 else 1
        out = np.empty_like(x)
        bn_fold_jit(
            x.reshape(batch, channels, spatial),
            np.ascontiguousarray(scale, dtype=np.float64),
            np.ascontiguousarray(shift, dtype=np.float64),
            out.reshape(batch, channels, spatial),
        )
        return out

    def bn_infer(x, weight, bias, mean, var, eps):
        # Per-channel fold is tiny; only the full-size apply needs the JIT.
        inv_std = 1.0 / np.sqrt(var + eps)
        scale = weight * inv_std
        shift = bias - mean * scale
        return bn_fold(x, scale, shift)

    def relu(x):
        x = np.ascontiguousarray(x, dtype=np.float64)
        out = np.empty_like(x)
        relu_jit(x.reshape(-1), out.reshape(-1))
        return out

    def delta_table(values, num_bits):
        values = np.ascontiguousarray(values, dtype=np.int64)
        table = np.empty((num_bits, values.size), dtype=np.int64)
        delta_table_jit(values, num_bits, table)
        return table

    def delta_column(value, num_bits):
        return delta_table(np.asarray([value], dtype=np.int64), num_bits)[:, 0]

    return {
        "im2col": im2col,
        "col2im": col2im,
        "conv2d_forward": conv2d_forward,
        "bn_fold": bn_fold,
        "bn_infer": bn_infer,
        "relu": relu,
        "delta_table": delta_table,
        "delta_column": delta_column,
    }


def load() -> Optional[Dict[str, Callable]]:
    """Import numba lazily and build the JIT kernels, or ``None`` on failure."""
    try:
        import numba
    except Exception:
        return None
    try:
        return _build(numba)
    except Exception:
        return None
