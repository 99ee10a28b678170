"""C-compiled kernel backend: a tiny shared library built with the system cc.

This backend makes ``engine="compiled"`` real on boxes without Numba but
with any C compiler on ``PATH`` (the common case for CI runners and dev
machines).  The embedded C source below is compiled once into a cache
directory keyed by the source hash and loaded through :mod:`ctypes`; a
failed probe (no compiler, compile error, load error) makes :func:`load`
return ``None`` and the registry falls back to the NumPy reference tier.

Bit-identity notes:

- The library is compiled with ``-ffp-contract=off`` so ``x * scale +
  shift`` rounds twice exactly like the NumPy composition — gcc's default
  ``-ffp-contract=fast`` would fuse it into one FMA rounding.
- The conv forward does **not** ship its own GEMM.  NumPy's ``matmul``
  result depends on the exact BLAS build, so the library instead receives
  a function pointer to the *same* ILP64 ``cblas_dgemm`` symbol NumPy's
  bundled OpenBLAS exports and calls it once per sample — the per-sample
  dgemm ``np.matmul(W, cols)`` issues when the filter count and the
  number of output positions both exceed one.  With one output position
  or one filter ``np.matmul`` issues a gemv instead, which rounds
  differently, so the Python wrapper runs those shapes (and every shape
  when the symbol cannot be resolved) as the C im2col plus
  ``np.matmul``.
- ``col2im`` accumulates taps in the same ``(i, j)`` row-major order as
  the reference loop, and integer kernels are exact by construction.
- The training path issues only the GEMMs NumPy itself issues: the
  forward's NoTrans dgemm per sample (keeping the transposed im2col rows
  for ``conv2d_backward``), ``np.matmul``'s Trans-weight dgemm per sample
  for the input gradient, and ``np.tensordot``'s NoTrans GEMM (through
  ``np.dot``) for the weight gradient.  A transposed-operand GEMM
  substituted for any of them rounds differently.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Callable, Dict, Optional

import numpy as np

from repro.nn.kernels import reference

_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef void (*dgemm64_t)(int order, int transa, int transb,
                          int64_t m, int64_t n, int64_t k,
                          double alpha, const double *a, int64_t lda,
                          const double *b, int64_t ldb,
                          double beta, double *c, int64_t ldc);

static dgemm64_t dgemm64 = 0;

void repro_set_dgemm64(void *fn) { dgemm64 = (dgemm64_t)fn; }
int repro_has_dgemm(void) { return dgemm64 != 0; }

/* Contiguous copy tuned for conv-sized rows: feature maps in this library
 * are tiny (ow of 2..32 doubles), where a plain vectorizable loop beats a
 * memcpy call; long rows still take the libc bulk path. */
static inline void copy_row(double *dst, const double *src, int64_t count)
{
    if (count <= 32) {
        for (int64_t t = 0; t < count; t++)
            dst[t] = src[t];
    } else {
        memcpy(dst, src, (size_t)count * sizeof(double));
    }
}

static inline void zero_row(double *dst, int64_t count)
{
    if (count <= 32) {
        for (int64_t t = 0; t < count; t++)
            dst[t] = 0.0;
    } else {
        memset(dst, 0, (size_t)count * sizeof(double));
    }
}

/* Max padded-plane size (doubles) eligible for the staged fast path. */
#define REPRO_PAD_BUF 4096

/* Fully specialised 3x3/stride-1/pad-1 im2col for one sample at a fixed
 * plane size: every loop bound is a compile-time constant, so the
 * compiler unrolls the tap nest into straight-line vector moves.  These
 * cover the plane sizes CIFAR-scale nets actually run (2x2, 4x4, 8x8,
 * 16x16, 32x32). */
#define REPRO_DEF_IM2COL_K3P1(NAME, H, W) \
static void NAME(const double *x, double *cols, int64_t c) \
{ \
    double pb[(H + 2) * (W + 2)]; \
    for (int64_t t = 0; t < (H + 2) * (W + 2); t++) \
        pb[t] = 0.0; \
    for (int64_t ch = 0; ch < c; ch++) { \
        const double *s = x + ch * (H) * (W); \
        for (int64_t y = 0; y < (H); y++) \
            for (int64_t xx = 0; xx < (W); xx++) \
                pb[(y + 1) * ((W) + 2) + xx + 1] = s[y * (W) + xx]; \
        double *d = cols + ch * 9 * (H) * (W); \
        for (int64_t i = 0; i < 3; i++) { \
            for (int64_t j = 0; j < 3; j++) { \
                double *dd = d + (i * 3 + j) * (H) * (W); \
                const double *pp = pb + i * ((W) + 2) + j; \
                for (int64_t oy = 0; oy < (H); oy++) \
                    for (int64_t ox = 0; ox < (W); ox++) \
                        dd[oy * (W) + ox] = pp[oy * ((W) + 2) + ox]; \
            } \
        } \
    } \
}

REPRO_DEF_IM2COL_K3P1(im2col_k3p1_2, 2, 2)
REPRO_DEF_IM2COL_K3P1(im2col_k3p1_4, 4, 4)
REPRO_DEF_IM2COL_K3P1(im2col_k3p1_8, 8, 8)
REPRO_DEF_IM2COL_K3P1(im2col_k3p1_16, 16, 16)
REPRO_DEF_IM2COL_K3P1(im2col_k3p1_32, 32, 32)

/* One sample of im2col with fused zero padding: x (C,H,W) -> cols (C*kh*kw, oh*ow). */
static void im2col_sample(const double *x, double *cols,
                          int64_t c, int64_t h, int64_t w,
                          int64_t kh, int64_t kw, int64_t stride, int64_t pad,
                          int64_t oh, int64_t ow)
{
    const int64_t plane = h * w;
    const int64_t ncols = oh * ow;
    const int64_t wp = w + 2 * pad;
    const int64_t hp = h + 2 * pad;
    if (kh == 3 && kw == 3 && stride == 1 && pad == 1 && h == w) {
        switch (h) {
        case 2:  im2col_k3p1_2(x, cols, c);  return;
        case 4:  im2col_k3p1_4(x, cols, c);  return;
        case 8:  im2col_k3p1_8(x, cols, c);  return;
        case 16: im2col_k3p1_16(x, cols, c); return;
        case 32: im2col_k3p1_32(x, cols, c); return;
        }
    }
    if (pad > 0 && hp * wp <= REPRO_PAD_BUF) {
        /* Small padded feature maps (the norm for CIFAR-scale nets):
         * stage each channel into a zero-bordered buffer once, turning
         * every tap row into an unconditional copy/gather.  The border
         * is zeroed once per sample — channel interiors always overwrite
         * the same region, never the border. */
        double pad_buf[REPRO_PAD_BUF];
        zero_row(pad_buf, hp * wp);
        for (int64_t ch = 0; ch < c; ch++) {
            const double *src = x + ch * plane;
            for (int64_t y = 0; y < h; y++)
                copy_row(pad_buf + (y + pad) * wp + pad, src + y * w, w);
            double *dst = cols + ch * kh * kw * ncols;
            /* Constant-width tap copies: at CIFAR scale the output row is
             * 2/4/8 doubles, where a loop with a compile-time trip count
             * unrolls into straight-line moves.  REPRO_TAPS_S1 expands the
             * whole stride-1 tap nest for one such width. */
#define REPRO_TAPS_S1(OW) \
            for (int64_t i = 0; i < kh; i++) { \
                for (int64_t j = 0; j < kw; j++) { \
                    double *d = dst + (i * kw + j) * ncols; \
                    const double *p = pad_buf + i * wp + j; \
                    for (int64_t oy = 0; oy < oh; oy++) { \
                        const double *pr = p + oy * wp; \
                        double *dr = d + oy * (OW); \
                        for (int64_t t = 0; t < (OW); t++) \
                            dr[t] = pr[t]; \
                    } \
                } \
            }
            if (stride == 1) {
                switch (ow) {
                case 2: REPRO_TAPS_S1(2); break;
                case 4: REPRO_TAPS_S1(4); break;
                case 8: REPRO_TAPS_S1(8); break;
                case 16: REPRO_TAPS_S1(16); break;
                default: REPRO_TAPS_S1(ow); break;
                }
            } else {
                for (int64_t i = 0; i < kh; i++) {
                    for (int64_t j = 0; j < kw; j++) {
                        double *d = dst + (i * kw + j) * ncols;
                        const double *p = pad_buf + i * wp + j;
                        for (int64_t oy = 0; oy < oh; oy++) {
                            const double *prow = p + oy * stride * wp;
                            double *drow = d + oy * ow;
                            for (int64_t ox = 0; ox < ow; ox++)
                                drow[ox] = prow[ox * stride];
                        }
                    }
                }
            }
#undef REPRO_TAPS_S1
        }
        return;
    }
    for (int64_t ch = 0; ch < c; ch++) {
        const double *src = x + ch * plane;
        for (int64_t i = 0; i < kh; i++) {
            for (int64_t j = 0; j < kw; j++) {
                double *dst = cols + (ch * kh * kw + i * kw + j) * ncols;
                for (int64_t oy = 0; oy < oh; oy++) {
                    const int64_t iy = oy * stride + i - pad;
                    double *row = dst + oy * ow;
                    if (iy < 0 || iy >= h) {
                        zero_row(row, ow);
                        continue;
                    }
                    const double *line = src + iy * w;
                    const int64_t ix0 = j - pad;
                    if (stride == 1) {
                        int64_t ox = 0;
                        int64_t in_end = ow;
                        for (; ox < ow && ix0 + ox < 0; ox++)
                            row[ox] = 0.0;
                        if (ix0 + in_end > w)
                            in_end = w - ix0;
                        if (in_end > ox) {
                            copy_row(row + ox, line + ix0 + ox, in_end - ox);
                            ox = in_end;
                        }
                        for (; ox < ow; ox++)
                            row[ox] = 0.0;
                    } else {
                        for (int64_t ox = 0; ox < ow; ox++) {
                            const int64_t ix = ox * stride + ix0;
                            row[ox] = (ix >= 0 && ix < w) ? line[ix] : 0.0;
                        }
                    }
                }
            }
        }
    }
}

/* im2col with fused zero padding: x (N,C,H,W) -> cols (N, C*kh*kw, oh*ow). */
void repro_im2col(const double *x, double *cols,
                  int64_t n, int64_t c, int64_t h, int64_t w,
                  int64_t kh, int64_t kw, int64_t stride, int64_t pad,
                  int64_t oh, int64_t ow)
{
    for (int64_t b = 0; b < n; b++)
        im2col_sample(x + b * c * h * w, cols + b * c * kh * kw * oh * ow,
                      c, h, w, kh, kw, stride, pad, oh, ow);
}

/* Adjoint scatter-add of one sample's columns (C*kh*kw, oh*ow) into its
 * zero-initialised padded plane stack (C, hp, wp).  Taps accumulate in
 * (i, j) row-major order for every output element, matching the
 * reference loop's floating-point addition order. */
static void col2im_sample(const double *cols, double *padded,
                          int64_t c, int64_t hp, int64_t wp,
                          int64_t kh, int64_t kw, int64_t stride,
                          int64_t oh, int64_t ow)
{
    const int64_t ncols = oh * ow;
    const int64_t plane = hp * wp;
    for (int64_t ch = 0; ch < c; ch++) {
        double *dst = padded + ch * plane;
        for (int64_t i = 0; i < kh; i++) {
            for (int64_t j = 0; j < kw; j++) {
                const double *src = cols + (ch * kh * kw + i * kw + j) * ncols;
                for (int64_t oy = 0; oy < oh; oy++) {
                    double *line = dst + (i + oy * stride) * wp + j;
                    const double *srow = src + oy * ow;
                    if (stride == 1) {
                        for (int64_t ox = 0; ox < ow; ox++)
                            line[ox] += srow[ox];
                    } else {
                        for (int64_t ox = 0; ox < ow; ox++)
                            line[ox * stride] += srow[ox];
                    }
                }
            }
        }
    }
}

void repro_col2im(const double *cols, double *padded,
                  int64_t n, int64_t c, int64_t hp, int64_t wp,
                  int64_t kh, int64_t kw, int64_t stride,
                  int64_t oh, int64_t ow)
{
    for (int64_t b = 0; b < n; b++)
        col2im_sample(cols + b * c * kh * kw * oh * ow, padded + b * c * hp * wp,
                      c, hp, wp, kh, kw, stride, oh, ow);
}

/* The conv bias as its own pass after the GEMM: one extra rounding per
 * element, never fused into the GEMM epilogue. */
static void add_bias(double *out, const double *bias, int64_t n, int64_t f, int64_t ncols)
{
    for (int64_t b = 0; b < n; b++) {
        for (int64_t ff = 0; ff < f; ff++) {
            const double bv = bias[ff];
            double *row = out + (b * f + ff) * ncols;
            for (int64_t l = 0; l < ncols; l++)
                row[l] += bv;
        }
    }
}

/* Fused forward: per sample, im2col straight into the cols buffer and a
 * dgemm on the still-cache-warm columns, then a separate bias pass.
 * Requires a dgemm pointer (caller checks repro_has_dgemm first). */
void repro_conv2d_forward(const double *x, const double *wmat, const double *bias,
                          double *cols, double *out,
                          int64_t n, int64_t c, int64_t h, int64_t w,
                          int64_t f, int64_t kh, int64_t kw,
                          int64_t stride, int64_t pad, int64_t oh, int64_t ow)
{
    const int64_t kdim = c * kh * kw;
    const int64_t ncols = oh * ow;
    for (int64_t b = 0; b < n; b++) {
        double *cols_b = cols + b * kdim * ncols;
        im2col_sample(x + b * c * h * w, cols_b, c, h, w, kh, kw, stride, pad, oh, ow);
        /* CblasRowMajor=101, CblasNoTrans=111: same per-sample GEMM that
         * np.matmul's broadcast path issues. */
        dgemm64(101, 111, 111, f, ncols, kdim, 1.0,
                wmat, kdim, cols_b, ncols,
                0.0, out + b * f * ncols, ncols);
    }
    if (bias)
        add_bias(out, bias, n, f, ncols);
}

/* src (rows, cols) -> dst (cols, rows).  Eight source rows at a time:
 * eight sequential read streams, and each destination write fills 64
 * contiguous bytes.  Pure data movement. */
static void transpose_block(const double *src, double *dst, int64_t rows, int64_t cols)
{
    int64_t i = 0;
    for (; i + 8 <= rows; i += 8) {
        const double *s0 = src + i * cols;
        const double *s1 = s0 + cols, *s2 = s1 + cols, *s3 = s2 + cols;
        const double *s4 = s3 + cols, *s5 = s4 + cols, *s6 = s5 + cols, *s7 = s6 + cols;
        double *d = dst + i;
        for (int64_t j = 0; j < cols; j++, d += rows) {
            d[0] = s0[j]; d[1] = s1[j]; d[2] = s2[j]; d[3] = s3[j];
            d[4] = s4[j]; d[5] = s5[j]; d[6] = s6[j]; d[7] = s7[j];
        }
    }
    for (; i < rows; i++)
        for (int64_t j = 0; j < cols; j++)
            dst[j * rows + i] = src[i * cols + j];
}

/* Grad-mode forward for a weight that needs a gradient: per sample,
 * im2col into the reused (K, L) block, the same NoTrans dgemm as
 * repro_conv2d_forward, then the block's (L, K) transpose into rows
 * (N, L, K) while it is still cache-hot.  rows is exactly the operand
 * np.tensordot would build from the columns in the backward pass. */
void repro_conv2d_forward_rows(const double *x, const double *wmat, const double *bias,
                               double *block, double *rows, double *out,
                               int64_t n, int64_t c, int64_t h, int64_t w,
                               int64_t f, int64_t kh, int64_t kw,
                               int64_t stride, int64_t pad, int64_t oh, int64_t ow)
{
    const int64_t kdim = c * kh * kw;
    const int64_t ncols = oh * ow;
    for (int64_t b = 0; b < n; b++) {
        im2col_sample(x + b * c * h * w, block, c, h, w, kh, kw, stride, pad, oh, ow);
        dgemm64(101, 111, 111, f, ncols, kdim, 1.0,
                wmat, kdim, block, ncols,
                0.0, out + b * f * ncols, ncols);
        transpose_block(block, rows + b * ncols * kdim, kdim, ncols);
    }
    if (bias)
        add_bias(out, bias, n, f, ncols);
}

/* Conv input gradient: per sample the dgemm np.matmul(W.T, grad) issues
 * (CblasTrans=112 on the row-major (F, K) weight, lda = K) into the reused
 * (K, L) block, scattered straight into that sample's padded planes,
 * zeroed just before. */
void repro_col2im_gemm(const double *wmat, const double *grad,
                       double *block, double *padded,
                       int64_t n, int64_t c, int64_t hp, int64_t wp,
                       int64_t f, int64_t kh, int64_t kw, int64_t stride,
                       int64_t oh, int64_t ow)
{
    const int64_t kdim = c * kh * kw;
    const int64_t ncols = oh * ow;
    for (int64_t b = 0; b < n; b++) {
        dgemm64(101, 112, 111, kdim, ncols, f, 1.0,
                wmat, kdim, grad + b * f * ncols, ncols,
                0.0, block, ncols);
        memset(padded + b * c * hp * wp, 0, (size_t)(c * hp * wp) * sizeof(double));
        col2im_sample(block, padded + b * c * hp * wp, c, hp, wp, kh, kw, stride, oh, ow);
    }
}

/* Folded inference batch-norm on (N, C, S): multiply rounds, add rounds.
 * Built with -ffp-contract=off so the two roundings are never fused. */
void repro_bn_fold(const double *x, const double *scale, const double *shift,
                   double *out, int64_t n, int64_t c, int64_t s)
{
    for (int64_t b = 0; b < n; b++) {
        for (int64_t ch = 0; ch < c; ch++) {
            const double sc = scale[ch];
            const double sh = shift[ch];
            const double *src = x + (b * c + ch) * s;
            double *dst = out + (b * c + ch) * s;
            for (int64_t i = 0; i < s; i++) {
                const double t = src[i] * sc;
                dst[i] = t + sh;
            }
        }
    }
}

/* Fully folded inference batch-norm: derive scale/shift from the layer's
 * raw statistics, then apply.  Every arithmetic step mirrors the NumPy
 * composition elementwise (add, sqrt, divide, multiply, subtract are all
 * correctly rounded IEEE ops), so the result is bit-identical to
 * computing scale/shift with NumPy and calling repro_bn_fold. */
void repro_bn_infer(const double *x, const double *weight, const double *bias,
                    const double *mean, const double *var, double eps,
                    double *out, int64_t n, int64_t c, int64_t s)
{
    for (int64_t b = 0; b < n; b++) {
        for (int64_t ch = 0; ch < c; ch++) {
            const double inv = 1.0 / sqrt(var[ch] + eps);
            const double sc = weight[ch] * inv;
            const double sh = bias[ch] - mean[ch] * sc;
            const double *src = x + (b * c + ch) * s;
            double *dst = out + (b * c + ch) * s;
            for (int64_t i = 0; i < s; i++) {
                const double t = src[i] * sc;
                dst[i] = t + sh;
            }
        }
    }
}

/* Training batch-norm output pass on (N, C, S): normalised = centered / std,
 * out = normalised * weight + bias, every op rounding once (no FMA). */
void repro_bn_normalize(const double *centered, const double *std,
                        const double *weight, const double *bias,
                        double *normalised, double *out,
                        int64_t n, int64_t c, int64_t s)
{
    for (int64_t b = 0; b < n; b++) {
        for (int64_t ch = 0; ch < c; ch++) {
            const double sd = std[ch], w = weight[ch], bv = bias[ch];
            const int64_t base = (b * c + ch) * s;
            for (int64_t i = 0; i < s; i++) {
                const double v = centered[base + i] / sd;
                const double t = v * w;
                normalised[base + i] = v;
                out[base + i] = t + bv;
            }
        }
    }
}

/* Training batch-norm backward terms, one pass over grad: with
 * g = grad * weight, weight_terms = grad * normalised (skipped when NULL),
 * grad_centered = g / std, std_terms = ((-g) * centered) / std_sq. */
void repro_bn_grad_terms(const double *grad, const double *normalised,
                         const double *centered, const double *weight,
                         const double *std, const double *std_sq,
                         double *weight_terms, double *grad_centered, double *std_terms,
                         int64_t n, int64_t c, int64_t s)
{
    for (int64_t b = 0; b < n; b++) {
        for (int64_t ch = 0; ch < c; ch++) {
            const double w = weight[ch], sd = std[ch], sq = std_sq[ch];
            const int64_t base = (b * c + ch) * s;
            if (weight_terms) {
                for (int64_t i = 0; i < s; i++)
                    weight_terms[base + i] = grad[base + i] * normalised[base + i];
            }
            for (int64_t i = 0; i < s; i++) {
                const double g = grad[base + i] * w;
                const double t = (-g) * centered[base + i];
                grad_centered[base + i] = g / sd;
                std_terms[base + i] = t / sq;
            }
        }
    }
}

/* x's four batch-norm gradient terms, added one rounding at a time in the
 * graph's order: accum += gvc (unless accum is gvc itself), += var_mean[c],
 * += grad_centered, += mean[c]. */
void repro_bn_grad_input(const double *gvc, const double *var_mean,
                         const double *grad_centered, const double *mean,
                         double *accum, int64_t add_gvc,
                         int64_t n, int64_t c, int64_t s)
{
    for (int64_t b = 0; b < n; b++) {
        for (int64_t ch = 0; ch < c; ch++) {
            const double vm = var_mean[ch], m = mean[ch];
            const int64_t base = (b * c + ch) * s;
            for (int64_t i = 0; i < s; i++) {
                double v = add_gvc ? accum[base + i] + gvc[base + i] : gvc[base + i];
                v = v + vm;
                v = v + grad_centered[base + i];
                accum[base + i] = v + m;
            }
        }
    }
}

/* ReLU with multiply-by-mask semantics: x * (x > 0) elementwise, so
 * negative inputs map to -0.0 and NaN propagates — bit-identical to the
 * NumPy mask composition, in one pass instead of two. */
void repro_relu(const double *x, double *out, int64_t size)
{
    for (int64_t i = 0; i < size; i++) {
        const double v = x[i];
        /* Branchless: (v > 0.0) is exactly 0.0 or 1.0, so the multiply
         * reproduces the mask composition (and vectorizes cleanly). */
        out[i] = v * (double)(v > 0.0);
    }
}

/* Signed value change for flipping every bit of every value: exact int64. */
void repro_delta_table(const int64_t *values, int64_t size, int64_t num_bits,
                       int64_t *table)
{
    const int64_t mask = ((int64_t)1 << num_bits) - 1;
    for (int64_t b = 0; b < num_bits; b++) {
        const int64_t mag = (int64_t)1 << b;
        const int sign_bit = (b == num_bits - 1);
        int64_t *row = table + b * size;
        for (int64_t i = 0; i < size; i++) {
            const int64_t bit = ((values[i] & mask) >> b) & 1;
            const int64_t delta = bit ? -mag : mag;
            row[i] = sign_bit ? -delta : delta;
        }
    }
}
"""

#: ``-ffp-contract=off -fno-fast-math`` are the bit-identity guarantees (no
#: FMA fusion, no algebraic rewrites); with those pinned, ``-march=native``
#: only widens per-element IEEE ops and stays exact.  It is dropped
#: automatically when the local compiler rejects it.
_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math")
_ARCH_FLAGS = ("-march=native",)
_DGEMM_SYMBOLS = ("scipy_cblas_dgemm64_", "cblas_dgemm64_")

_i64 = ctypes.c_int64
_ptr = ctypes.c_void_p


def _compiler() -> Optional[str]:
    override = os.environ.get("CC")
    if override:
        return override if shutil.which(override) else None
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _cache_dir() -> str:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return override
    home = os.path.expanduser("~")
    if home and home != "~":
        return os.path.join(home, ".cache", "repro-kernels")
    return os.path.join(tempfile.gettempdir(), "repro-kernels")


def _build_library() -> Optional[str]:
    compiler = _compiler()
    if compiler is None:
        return None
    digest = hashlib.sha256(
        "\x00".join((_SOURCE, *_CFLAGS, *_ARCH_FLAGS)).encode()
    ).hexdigest()[:16]
    directory = _cache_dir()
    library = os.path.join(directory, f"repro-kernels-{digest}.so")
    if os.path.exists(library):
        return library
    try:
        os.makedirs(directory, exist_ok=True)
        source = os.path.join(directory, f"repro-kernels-{digest}.c")
        with open(source, "w") as handle:
            handle.write(_SOURCE)
        scratch = library + f".tmp{os.getpid()}"
        try:
            subprocess.run(
                [compiler, *_CFLAGS, *_ARCH_FLAGS, "-o", scratch, source, "-lm"],
                check=True, capture_output=True, timeout=120,
            )
        except subprocess.CalledProcessError:
            subprocess.run(
                [compiler, *_CFLAGS, "-o", scratch, source, "-lm"],
                check=True, capture_output=True, timeout=120,
            )
        os.replace(scratch, library)
    except (OSError, subprocess.SubprocessError):
        return None
    return library


def _dgemm_pointer() -> Optional[ctypes.c_void_p]:
    """Resolve NumPy's own ILP64 ``cblas_dgemm`` so C calls the same GEMM."""
    site_dir = os.path.dirname(os.path.dirname(np.__file__))
    patterns = (
        os.path.join(site_dir, "numpy.libs", "libscipy_openblas*"),
        os.path.join(site_dir, "numpy.libs", "libopenblas*"),
        os.path.join(os.path.dirname(np.__file__), ".libs", "libopenblas*"),
    )
    candidates = [path for pattern in patterns for path in sorted(glob.glob(pattern))]
    candidates.append(None)  # symbols already loaded into the process
    for path in candidates:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _DGEMM_SYMBOLS:
            function = getattr(lib, symbol, None)
            if function is not None:
                return ctypes.cast(function, ctypes.c_void_p)
    return None


def _bind(library_path: str) -> ctypes.CDLL:
    lib = ctypes.CDLL(library_path)
    lib.repro_set_dgemm64.argtypes = [_ptr]
    lib.repro_set_dgemm64.restype = None
    lib.repro_has_dgemm.argtypes = []
    lib.repro_has_dgemm.restype = ctypes.c_int
    lib.repro_im2col.argtypes = [_ptr, _ptr] + [_i64] * 10
    lib.repro_im2col.restype = None
    lib.repro_col2im.argtypes = [_ptr, _ptr] + [_i64] * 9
    lib.repro_col2im.restype = None
    lib.repro_conv2d_forward.argtypes = [_ptr] * 5 + [_i64] * 11
    lib.repro_conv2d_forward.restype = None
    lib.repro_conv2d_forward_rows.argtypes = [_ptr] * 6 + [_i64] * 11
    lib.repro_conv2d_forward_rows.restype = None
    lib.repro_col2im_gemm.argtypes = [_ptr] * 4 + [_i64] * 10
    lib.repro_col2im_gemm.restype = None
    lib.repro_bn_fold.argtypes = [_ptr] * 4 + [_i64] * 3
    lib.repro_bn_fold.restype = None
    lib.repro_bn_infer.argtypes = [_ptr] * 5 + [ctypes.c_double, _ptr] + [_i64] * 3
    lib.repro_bn_infer.restype = None
    lib.repro_bn_normalize.argtypes = [_ptr] * 6 + [_i64] * 3
    lib.repro_bn_normalize.restype = None
    lib.repro_bn_grad_terms.argtypes = [_ptr] * 9 + [_i64] * 3
    lib.repro_bn_grad_terms.restype = None
    lib.repro_bn_grad_input.argtypes = [_ptr] * 5 + [_i64] * 4
    lib.repro_bn_grad_input.restype = None
    lib.repro_relu.argtypes = [_ptr, _ptr, _i64]
    lib.repro_relu.restype = None
    lib.repro_delta_table.argtypes = [_ptr, _i64, _i64, _ptr]
    lib.repro_delta_table.restype = None
    return lib


def _f64(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64)


_addressof = ctypes.addressof
_char_from_buffer = ctypes.c_char.from_buffer


def _data(array: np.ndarray) -> int:
    # from_buffer + addressof is ~3x cheaper per call than going through
    # array.ctypes; it only works on writable contiguous buffers, so fall
    # back for read-only views and zero-size arrays.
    try:
        return _addressof(_char_from_buffer(array))
    except (TypeError, BufferError, ValueError):
        return array.ctypes.data


def _make_kernels(lib: ctypes.CDLL) -> Dict[str, Callable]:
    has_gemm = bool(lib.repro_has_dgemm())
    # The wrappers sit on hot loops where even attribute lookups show up in
    # profiles, so the bound C entry points are closed over as locals.
    c_im2col = lib.repro_im2col
    c_col2im = lib.repro_col2im
    c_conv2d = lib.repro_conv2d_forward
    c_conv2d_rows = lib.repro_conv2d_forward_rows
    c_col2im_gemm = lib.repro_col2im_gemm
    c_bn_fold = lib.repro_bn_fold
    c_bn_infer = lib.repro_bn_infer
    c_bn_normalize = lib.repro_bn_normalize
    c_bn_grad_terms = lib.repro_bn_grad_terms
    c_bn_grad_input = lib.repro_bn_grad_input
    c_relu = lib.repro_relu
    c_delta_table = lib.repro_delta_table
    output_size = reference.conv2d_output_size
    empty = np.empty
    empty_like = np.empty_like

    def im2col(x, kernel, stride, padding, out=None):
        batch, channels, height, width = x.shape
        kh, kw = kernel
        out_h, out_w = output_size(height, width, kernel, stride, padding)
        x = _f64(x)
        if out is None:
            out = empty((batch, channels * kh * kw, out_h * out_w))
        c_im2col(
            _data(x), _data(out), batch, channels, height, width,
            kh, kw, stride, padding, out_h, out_w,
        )
        return out

    def col2im(cols, input_shape, kernel, stride, padding, weight_matrix=None):
        batch, channels, height, width = input_shape
        kh, kw = kernel
        out_h, out_w = output_size(height, width, kernel, stride, padding)
        padded_shape = (batch, channels, height + 2 * padding, width + 2 * padding)
        if weight_matrix is not None and not (
            has_gemm
            and min(weight_matrix.shape + (out_h * out_w,)) > 1
            and cols.flags.c_contiguous and cols.dtype == np.float64
            and weight_matrix.flags.c_contiguous and weight_matrix.dtype == np.float64
        ):
            # np.matmul takes a gemv or strided path here; keep its call.
            cols, weight_matrix = np.matmul(weight_matrix.T, cols), None
        if weight_matrix is None:
            cols = _f64(cols)
            padded = np.zeros(padded_shape)
            c_col2im(
                _data(cols), _data(padded), batch, channels,
                padded.shape[2], padded.shape[3], kh, kw, stride, out_h, out_w,
            )
        else:
            padded = empty(padded_shape)
            block = empty((weight_matrix.shape[1], out_h * out_w))
            c_col2im_gemm(
                _data(weight_matrix), _data(cols), _data(block), _data(padded),
                batch, channels, padded.shape[2], padded.shape[3], weight_matrix.shape[0],
                kh, kw, stride, out_h, out_w,
            )
        if padding > 0:
            return padded[:, :, padding:-padding, padding:-padding]
        return padded

    def conv2d_forward(x, weight_matrix, bias, kernel, stride, padding, cols_out=None,
                       rows=False):
        # rows=True (only asked for together with conv2d_backward, which
        # needs the dgemm) keeps the (N, L, K) transposed columns instead.
        batch, channels, height, width = x.shape
        kh, kw = kernel
        out_h, out_w = output_size(height, width, kernel, stride, padding)
        num_filters = weight_matrix.shape[0]
        kdim, positions = channels * kh * kw, out_h * out_w
        if not has_gemm or min(num_filters, positions) == 1:
            # With one output position or one filter np.matmul issues a
            # gemv, which rounds differently from a dgemm; keep its call.
            cols = im2col(x, kernel, stride, padding, out=cols_out)
            out = np.matmul(weight_matrix, cols)
            if bias is not None:
                out += bias.reshape(1, -1, 1)
            if rows:
                # (N, L, K); with L == 1 this is the columns' own memory.
                return out, np.ascontiguousarray(cols.transpose(0, 2, 1))
            return out, cols
        x = _f64(x)
        weight_matrix = _f64(weight_matrix)
        out = empty((batch, num_filters, positions))
        if bias is not None:
            bias = _f64(bias)
        bias_ptr = None if bias is None else _data(bias)
        if rows:
            kept = empty((batch, positions, kdim))
            block = empty((kdim, positions))
            c_conv2d_rows(
                _data(x), _data(weight_matrix), bias_ptr, _data(block),
                _data(kept), _data(out), batch, channels, height, width, num_filters,
                kh, kw, stride, padding, out_h, out_w,
            )
            return out, kept
        cols = cols_out
        if cols is None:
            cols = empty((batch, kdim, positions))
        c_conv2d(
            _data(x), _data(weight_matrix), bias_ptr, _data(cols), _data(out),
            batch, channels, height, width, num_filters,
            kh, kw, stride, padding, out_h, out_w,
        )
        return out, cols

    def conv2d_backward(grad, rows, weight_matrix, input_shape, kernel, stride, padding,
                        input_grad=True, col2im_impl=None):
        grad_weight = None
        if rows is not None:
            # np.tensordot's GEMM on its own operands: the (F, N*L) copy of
            # grad, and in place of its transposed copy of the columns the
            # rows the forward kept.  With one sample tensordot passes a
            # transposed view (a Trans GEMM), so the rows are laid out the
            # same way.
            batch, num_filters, positions = grad.shape
            lhs = grad.transpose(1, 0, 2).reshape(num_filters, batch * positions)
            rhs = rows.reshape(batch * positions, -1) if batch > 1 else np.asfortranarray(rows[0])
            grad_weight = np.dot(lhs, rhs)
        # The input gradient reads only the weights: the reference path.
        _, grad_x = reference.conv2d_backward(
            grad, None, weight_matrix, input_shape, kernel, stride, padding,
            input_grad, col2im_impl or col2im,
        )
        return grad_weight, grad_x

    def bn_fold(x, scale, shift):
        x = _f64(x)
        scale = _f64(scale)
        shift = _f64(shift)
        shape = x.shape
        spatial = 1
        for dim in shape[2:]:
            spatial *= dim
        out = empty_like(x)
        c_bn_fold(
            _data(x), _data(scale), _data(shift), _data(out),
            shape[0], shape[1], spatial,
        )
        return out

    def bn_infer(x, weight, bias, mean, var, eps):
        x = _f64(x)
        shape = x.shape
        spatial = 1
        for dim in shape[2:]:
            spatial *= dim
        out = empty_like(x)
        c_bn_infer(
            _data(x), _data(_f64(weight)), _data(_f64(bias)),
            _data(_f64(mean)), _data(_f64(var)), float(eps),
            _data(out), shape[0], shape[1], spatial,
        )
        return out

    def channels_layout(full, *vectors):
        """``(N, C, S)`` of ``full`` if every operand suits the C passes."""
        if not all(a.flags.c_contiguous and a.dtype == np.float64 for a in full):
            return None
        shape = full[0].shape
        if any(a.shape != shape for a in full) or any(v.size != shape[1] for v in vectors):
            return None
        spatial = 1
        for dim in shape[2:]:
            spatial *= dim
        return shape[0], shape[1], spatial

    def bn_normalize(centered, std, weight, bias):
        std, weight, bias = _f64(std), _f64(weight), _f64(bias)
        layout = channels_layout((centered,), std, weight, bias)
        if layout is None:
            return reference.bn_normalize(centered, std, weight, bias)
        normalised = empty_like(centered)
        out = empty_like(centered)
        c_bn_normalize(
            _data(centered), _data(std), _data(weight), _data(bias),
            _data(normalised), _data(out), *layout,
        )
        return normalised, out

    def bn_grad_terms(grad, normalised, centered, weight, std, std_sq, weight_terms=True):
        weight, std, std_sq = _f64(weight), _f64(std), _f64(std_sq)
        layout = channels_layout((grad, normalised, centered), weight, std, std_sq)
        if layout is None:
            return reference.bn_grad_terms(
                grad, normalised, centered, weight, std, std_sq, weight_terms
            )
        terms = empty_like(grad) if weight_terms else None
        grad_centered = empty_like(grad)
        std_terms = empty_like(grad)
        c_bn_grad_terms(
            _data(grad), _data(normalised), _data(centered), _data(weight),
            _data(std), _data(std_sq), None if terms is None else _data(terms),
            _data(grad_centered), _data(std_terms), *layout,
        )
        return terms, grad_centered, std_terms

    def bn_grad_input(grad_var_centered, var_mean, grad_centered, mean, accum=None):
        var_mean, mean = _f64(var_mean), _f64(mean)
        arrays = (grad_var_centered, grad_centered) + (() if accum is None else (accum,))
        layout = channels_layout(arrays, var_mean, mean)
        if layout is None:
            return reference.bn_grad_input(grad_var_centered, var_mean, grad_centered, mean, accum)
        target = grad_var_centered if accum is None else accum
        c_bn_grad_input(
            _data(grad_var_centered), _data(var_mean), _data(grad_centered), _data(mean),
            _data(target), int(accum is not None), *layout,
        )
        return target

    def relu(x):
        x = _f64(x)
        out = empty_like(x)
        c_relu(_data(x), _data(out), x.size)
        return out

    def delta_table(values, num_bits):
        values = np.ascontiguousarray(values, dtype=np.int64)
        table = empty((num_bits, values.size), dtype=np.int64)
        c_delta_table(_data(values), values.size, num_bits, _data(table))
        return table

    def delta_column(value, num_bits):
        values = np.asarray([value], dtype=np.int64)
        column = empty(num_bits, dtype=np.int64)
        c_delta_table(_data(values), 1, num_bits, _data(column))
        return column

    kernels = {
        "im2col": im2col,
        "col2im": col2im,
        "conv2d_forward": conv2d_forward,
        "bn_fold": bn_fold,
        "bn_infer": bn_infer,
        "bn_normalize": bn_normalize,
        "bn_grad_terms": bn_grad_terms,
        "bn_grad_input": bn_grad_input,
        "relu": relu,
        "delta_table": delta_table,
        "delta_column": delta_column,
    }
    if has_gemm:
        kernels["conv2d_backward"] = conv2d_backward
    return kernels


def load() -> Optional[Dict[str, Callable]]:
    """Build (or reuse) the shared library and return bound kernels.

    Returns ``None`` when no compiler is available or the build fails —
    the registry then falls back to the reference tier.
    """
    library_path = _build_library()
    if library_path is None:
        return None
    try:
        lib = _bind(library_path)
    except OSError:
        return None
    pointer = _dgemm_pointer()
    if pointer is not None:
        lib.repro_set_dgemm64(pointer)
    return _make_kernels(lib)
