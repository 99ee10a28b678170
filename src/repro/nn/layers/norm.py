"""Normalisation layers: batch norm (CNNs) and layer norm (transformers)."""

from __future__ import annotations

import numpy as np

from repro.nn import init, kernels
from repro.nn.autograd import Tensor, _unbroadcast, is_grad_enabled
from repro.nn.module import Module
from repro.nn.parameter import Parameter


class _BatchNorm(Module):
    """Shared implementation for 1-D and 2-D batch normalisation."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init.ones((num_features,)), name="weight")
        self.bias = Parameter(init.zeros((num_features,)), name="bias")
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def _reduce_axes(self, x: Tensor) -> tuple:
        raise NotImplementedError

    def _shape_for_broadcast(self, x: Tensor) -> tuple:
        raise NotImplementedError

    def forward(self, x: Tensor) -> Tensor:
        axes = self._reduce_axes(x)
        shape = self._shape_for_broadcast(x)
        if self.training:
            return _batch_norm_train(self, x, axes, shape)
        # Inference mode: the statistics are constants, so the whole layer
        # folds to ``x * scale + shift`` — two full-size passes instead of
        # four.  scale/shift are per-channel, so the elementwise form is
        # per-sample independent (stacked-evaluation safe); with gradients
        # on, ``_batch_norm_eval`` carries them to x, weight and bias.
        if not (
            is_grad_enabled()
            and (x.requires_grad or self.weight.requires_grad or self.bias.requires_grad)
        ):
            fused = kernels.active("bn_infer")
            if fused is not None:
                # Gradient-free forward with the C kernels active: one
                # C pass folding the raw statistics and applying them,
                # instead of several per-channel NumPy ops plus two Tensor
                # passes.  Same derivation steps, same multiply-then-add
                # rounding order — bit-identical to the composition below.
                return Tensor(fused(
                    x.data, self.weight.data, self.bias.data,
                    self.running_mean, self.running_var, self.eps,
                ))
            fused = kernels.active("bn_fold")
            if fused is not None:
                # Partial backend (bn_infer dropped or absent): still fold
                # scale/shift here and run the big pass compiled.
                inv_std_vec = 1.0 / np.sqrt(self.running_var + self.eps)
                scale_vec = self.weight.data * inv_std_vec
                shift_vec = self.bias.data - self.running_mean * scale_vec
                return Tensor(fused(x.data, scale_vec, shift_vec))
        return _batch_norm_eval(self, x, shape)


def _batch_norm_train(layer: "_BatchNorm", x: Tensor, axes: tuple, shape: tuple) -> Tensor:
    """Training-mode batch norm as one autograd node.

    Bit-identical to composing the layer from Tensor primitives::

        mean = x.mean(axes, keepdims=True)
        var = x.var(axes, keepdims=True)
        out = (x - mean) / ((var + eps) ** 0.5) * weight + bias

    The forward evaluates that op sequence once (the composition computes
    the mean and ``x - mean`` twice, with identical results).  The
    backward replays the composed nodes' NumPy ops in the order the
    graph's reverse-topological traversal would run them: the bias, then
    the weight, then ``x``'s four contributions, added in the
    composition's order — the centered term of the variance path, the
    variance-mean term, the centered term and the mean term.  Per-channel
    sums keep ``_unbroadcast``'s axis-by-axis reductions; the full-size
    elementwise chains between them dispatch through the kernel registry
    (``bn_normalize``, ``bn_grad_terms``, ``bn_grad_input``).
    """
    weight, bias = layer.weight, layer.bias
    data = x.data
    inv_count = 1.0 / int(np.prod([data.shape[a] for a in axes]))
    mean = data.sum(axis=axes, keepdims=True) * inv_count
    centered = data + (-mean)
    var = (centered * centered).sum(axis=axes, keepdims=True) * inv_count
    momentum = layer.momentum
    layer.running_mean[...] = (
        (1 - momentum) * layer.running_mean + momentum * mean.reshape(-1)
    )
    layer.running_var[...] = (
        (1 - momentum) * layer.running_var + momentum * var.reshape(-1)
    )
    shifted_var = var + layer.eps
    std = shifted_var ** 0.5
    scale = weight.data
    normalised, out = kernels.bn_normalize(centered, std, scale, bias.data)

    def backward(grad: np.ndarray) -> None:
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(grad, shape).reshape(bias.shape))
        if not x.requires_grad:
            if weight.requires_grad:
                weight._accumulate(
                    _unbroadcast(grad * normalised, shape).reshape(weight.shape), fresh=True
                )
            return
        weight_terms, grad_centered, std_terms = kernels.bn_grad_terms(
            grad, normalised, centered, scale, std, std ** 2, weight.requires_grad
        )
        if weight.requires_grad:
            weight._accumulate(_unbroadcast(weight_terms, shape).reshape(weight.shape), fresh=True)
        grad_std = _unbroadcast(std_terms, shape)
        grad_var = grad_std * 0.5 * shifted_var ** (0.5 - 1)
        # The variance path: d(sum of squares) reaches ``centered * centered``
        # once per operand, so its gradient is t + t.
        grad_var_centered = (grad_var * inv_count) * centered
        grad_var_centered += grad_var_centered
        var_mean = -_unbroadcast(grad_var_centered, shape) * inv_count
        mean_term = -_unbroadcast(grad_centered, shape) * inv_count
        if x.grad is None:
            x.grad = kernels.bn_grad_input(grad_var_centered, var_mean, grad_centered, mean_term)
        else:
            kernels.bn_grad_input(grad_var_centered, var_mean, grad_centered, mean_term, x.grad)

    return Tensor._make(out, (x, weight, bias), backward)


def _batch_norm_eval(layer: "_BatchNorm", x: Tensor, shape: tuple) -> Tensor:
    """Inference-mode batch norm as one autograd node.

    Bit-identical to the Tensor-primitive composition::

        scale = weight.reshape(shape) * inv_std
        shift = bias.reshape(shape) - running_mean * scale
        out = x * scale + shift

    The backward replays that graph's NumPy ops: the shift's per-channel
    gradient (the bias gradient) and its path into ``scale``, ``x``'s
    single term, then ``scale``'s second term and the weight gradient.
    ``x`` gets one contribution, so its accumulation order is unchanged.
    """
    weight, bias = layer.weight, layer.bias
    inv_std = (1.0 / np.sqrt(layer.running_var + layer.eps)).reshape(shape)
    running_mean = layer.running_mean.reshape(shape)
    scale = weight.data.reshape(shape) * inv_std
    shift = bias.data.reshape(shape) + (-(running_mean * scale))
    data = x.data
    out = data * scale + shift

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad or bias.requires_grad:
            grad_shift = _unbroadcast(grad, shape)
            if bias.requires_grad:
                bias._accumulate(grad_shift.reshape(bias.shape))
        if x.requires_grad:
            x._accumulate(grad * scale, fresh=True)
        if weight.requires_grad:
            grad_scale = -grad_shift * running_mean + _unbroadcast(grad * data, shape)
            weight._accumulate((grad_scale * inv_std).reshape(weight.shape), fresh=True)

    return Tensor._make(out, (x, weight, bias), backward)


class BatchNorm2d(_BatchNorm):
    """Batch normalisation over ``(N, C, H, W)`` feature maps."""

    def _reduce_axes(self, x: Tensor) -> tuple:
        return (0, 2, 3)

    def _shape_for_broadcast(self, x: Tensor) -> tuple:
        return (1, self.num_features, 1, 1)


class BatchNorm1d(_BatchNorm):
    """Batch normalisation over ``(N, C, L)`` feature maps."""

    def _reduce_axes(self, x: Tensor) -> tuple:
        return (0, 2)

    def _shape_for_broadcast(self, x: Tensor) -> tuple:
        return (1, self.num_features, 1)


class LayerNorm(Module):
    """Layer normalisation over the last dimension (transformer style)."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5):
        super().__init__()
        if normalized_shape <= 0:
            raise ValueError("normalized_shape must be positive")
        self.normalized_shape = normalized_shape
        self.eps = eps
        self.weight = Parameter(init.ones((normalized_shape,)), name="weight")
        self.bias = Parameter(init.zeros((normalized_shape,)), name="bias")

    def forward(self, x: Tensor) -> Tensor:
        if is_grad_enabled() and (
            x.requires_grad or self.weight.requires_grad or self.bias.requires_grad
        ):
            return _layer_norm_node(self, x)
        # Gradient-free: the same op sequence in place, with no graph.
        centered, _, std = _layer_norm_statistics(x.data, self.eps)
        out = np.divide(centered, std, out=centered)
        out *= self.weight.data
        out += self.bias.data
        return Tensor(out)


def _layer_norm_statistics(data: np.ndarray, eps: float) -> tuple:
    """``(x - mean, var + eps, (var + eps) ** 0.5)`` over the last axis."""
    inv_count = 1.0 / data.shape[-1]
    mean = data.sum(axis=-1, keepdims=True) * inv_count
    centered = data + (-mean)
    shifted_var = (centered * centered).sum(axis=-1, keepdims=True) * inv_count + eps
    return centered, shifted_var, shifted_var ** 0.5


def _layer_norm_node(layer: LayerNorm, x: Tensor) -> Tensor:
    """Layer norm as one autograd node.

    Bit-identical to composing the layer from Tensor primitives::

        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        out = (x - mean) / ((var + eps) ** 0.5) * weight + bias

    The forward evaluates that op sequence once (the composition computes
    the mean and ``x - mean`` twice, with identical results).  The
    backward replays the composed nodes' NumPy ops in the order the
    graph's reverse-topological traversal runs them, as
    :func:`_batch_norm_train` does: the bias, the weight, then ``x``'s
    four contributions, added one at a time in the composition's order —
    the centered term of the variance path, the variance-mean term, the
    centered term and the mean term.  ``__pow__``'s ``** (0.5 - 1)`` and
    ``__truediv__``'s ``std ** 2`` are kept as written there.
    """
    weight, bias = layer.weight, layer.bias
    inv_count = 1.0 / x.shape[-1]
    centered, shifted_var, std = _layer_norm_statistics(x.data, layer.eps)
    scale = weight.data
    normalised = centered / std
    out = normalised * scale + bias.data
    stat_shape = std.shape

    def backward(grad: np.ndarray) -> None:
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(grad, bias.shape))
        if weight.requires_grad:
            weight._accumulate(_unbroadcast(grad * normalised, weight.shape), fresh=True)
        if not x.requires_grad:
            return
        grad_normalised = grad * scale
        grad_centered = grad_normalised / std
        grad_std = _unbroadcast(-grad_normalised * centered / (std ** 2), stat_shape)
        grad_var = grad_std * 0.5 * shifted_var ** (0.5 - 1)
        # The variance path: d(sum of squares) reaches ``centered * centered``
        # once per operand, so its gradient is t + t.
        grad_var_centered = (grad_var * inv_count) * centered
        grad_var_centered += grad_var_centered
        var_mean = -_unbroadcast(grad_var_centered, stat_shape) * inv_count
        mean_term = -_unbroadcast(grad_centered, stat_shape) * inv_count
        if x.grad is None:
            x.grad = grad_var_centered
        else:
            x.grad += grad_var_centered
        x.grad += var_mean
        x.grad += grad_centered
        x.grad += mean_term

    return Tensor._make(out, (x, weight, bias), backward)
