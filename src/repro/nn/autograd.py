"""A small reverse-mode automatic-differentiation engine on top of numpy.

The bit-flip attack (Section VI-B) ranks candidate weight bits by the
gradient of the task loss with respect to the quantized weights, so the
reproduction needs a DNN framework that can compute those gradients for
every architecture in the Table-I roster (CNNs, vision transformers, a
state-space backbone and a 1-D audio CNN).  Rather than hand-deriving the
backward pass of each architecture, the framework builds every model from
the differentiable :class:`Tensor` primitives defined here; gradients are
obtained by reverse-mode traversal of the recorded computation graph.

The engine supports exactly the operations the model zoo needs — elementwise
arithmetic with broadcasting, matrix multiplication (2-D and batched),
reductions, shape manipulation, the usual activation functions, softmax /
log-softmax, and concatenation/slicing — while convolutions and pooling are
implemented as composite functions in :mod:`repro.nn.functional` using the
same primitives.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn import kernels

ArrayLike = Union[np.ndarray, float, int, Sequence]


class _GradMode(threading.local):
    """Thread-local graph-construction switch (see :class:`no_grad`).

    Each thread carries its own flag so a thread evaluating under
    ``no_grad`` (the incremental inference engine, a daemon's executor
    thread) can never disable graph recording for a thread that is
    concurrently training or running a gradient pass.
    """

    enabled = True


_GRAD_MODE = _GradMode()


def is_grad_enabled() -> bool:
    """Whether new tensor operations currently record the computation graph."""
    return _GRAD_MODE.enabled


class no_grad:
    """Context manager that disables computation-graph construction.

    Inside the context every tensor operation returns a constant
    :class:`Tensor` — no parents, no backward closure, ``requires_grad``
    False — while computing exactly the same numpy values as the recording
    path.  Pure evaluation (accuracy measurement, the trial-flip loss
    comparisons of the bit search) therefore allocates no graph state; the
    incremental evaluation engine (:mod:`repro.nn.inference`) runs all of
    its suffix re-executions under this mode.

    The previous mode is restored on exit, so contexts nest safely::

        with no_grad():
            logits = model(batch)       # plain forward, no graph
        loss = model(batch)             # records the graph again
    """

    def __enter__(self) -> "no_grad":
        self._previous = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        _GRAD_MODE.enabled = self._previous
        return False


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.dtype != np.float64:
            return value.astype(np.float64)
        return value
    return np.asarray(value, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum along axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Tuple["Tensor", ...] = (),
        backward: Optional[Callable[[np.ndarray], None]] = None,
        name: Optional[str] = None,
    ):
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents = parents
        self._backward = backward
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        """Return the value of a scalar tensor as a Python float."""
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a tensor sharing the same data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        if not _GRAD_MODE.enabled:
            return Tensor(data, requires_grad=False)
        requires_grad = any(p.requires_grad for p in parents)
        if not requires_grad:
            return Tensor(data, requires_grad=False)
        return Tensor(data, requires_grad=True, parents=parents, backward=backward)

    def _accumulate(self, grad: np.ndarray, fresh: bool = False) -> None:
        """Add ``grad`` into ``self.grad``.

        ``fresh=True`` promises that ``grad`` is a newly computed array
        nothing else references, so a C-contiguous float64 first
        contribution is adopted as the gradient buffer instead of copied
        (the copy would have the same layout and values).
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            if np.shape(grad) == self.data.shape:
                if fresh and grad.flags.c_contiguous and grad.dtype == self.data.dtype:
                    self.grad = grad
                    return
                # First contribution: one copy instead of zeros + add (the
                # values are identical — 0 + g == g).
                self.grad = np.array(grad, dtype=self.data.dtype)
                return
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        ``grad`` defaults to 1 for scalar outputs (the usual loss case).
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = _as_array(grad)

        # Depth-first post-order over the graph, parents in recorded order
        # (the order gradient contributions accumulate in).  Iterative: a
        # recursive closure would reference itself, and that cycle would
        # keep the whole graph alive until the cyclic collector ran.
        ordering: List[Tensor] = []
        visited = {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            node, parents = stack[-1]
            for parent in parents:
                if id(parent) not in visited and parent.requires_grad:
                    visited.add(id(parent))
                    stack.append((parent, iter(parent._parents)))
                    break
            else:
                stack.pop()
                ordering.append(node)

        self._accumulate(grad)
        for node in reversed(ordering):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.shape))
            other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad, fresh=True)

        return Tensor._make(data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad * other.data, self.shape), fresh=True)
            other._accumulate(_unbroadcast(grad * self.data, other.shape), fresh=True)

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad / other.data, self.shape), fresh=True)
            other._accumulate(
                _unbroadcast(-grad * self.data / (other.data ** 2), other.shape), fresh=True
            )

        return Tensor._make(data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1), fresh=True)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Matrix multiplication
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix product supporting 2-D and batched (>=3-D) operands."""
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                grad_self = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(grad_self, self.shape), fresh=True)
            if other.requires_grad:
                grad_other = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(_unbroadcast(grad_other, other.shape), fresh=True)

        return Tensor._make(data, (self, other), backward)

    __matmul__ = matmul

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            expanded = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % self.ndim for a in axes)
                for a in sorted(axes):
                    expanded = np.expand_dims(expanded, a)
            self._accumulate(np.broadcast_to(expanded, self.shape).copy(), fresh=True)

        return Tensor._make(data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis: Union[int, Tuple[int, ...]], keepdims: bool = False) -> "Tensor":
        """Biased variance along ``axis`` (matches batch-norm statistics)."""
        mean = self.mean(axis=axis, keepdims=True)
        centered = self - mean
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        """Maximum along one axis (gradient flows to the arg-max entries)."""
        data = self.data.max(axis=axis, keepdims=True)
        mask = (self.data == data).astype(np.float64)
        # Split ties evenly so the gradient remains well defined.
        mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
        out_data = data if keepdims else np.squeeze(data, axis=axis)

        def backward(grad: np.ndarray) -> None:
            expanded = grad if keepdims else np.expand_dims(grad, axis)
            self._accumulate(mask * expanded, fresh=True)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return Tensor._make(data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = np.argsort(axes)
        data = self.data.transpose(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(data, (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        data = self.data[key]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, key, grad)
            self._accumulate(full, fresh=True)

        return Tensor._make(data, (self,), backward)

    def pad(self, pad_width: Sequence[Tuple[int, int]]) -> "Tensor":
        """Zero-pad the tensor; ``pad_width`` follows ``numpy.pad`` semantics."""
        pad_width = tuple(tuple(p) for p in pad_width)
        data = np.pad(self.data, pad_width)
        slices = tuple(
            slice(before, before + dim) for (before, _), dim in zip(pad_width, self.shape)
        )

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad[slices])

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data, fresh=True)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data, fresh=True)

        return Tensor._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / np.maximum(data, 1e-12), fresh=True)

        return Tensor._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        # Multiply-by-mask arithmetic with a bool mask: it upcasts to
        # exactly 0.0/1.0, so signed zeros and NaN come out as with a float
        # mask, without materialising one.  On the C kernels the forward
        # mask multiply runs as a single C pass.
        data = kernels.relu(self.data)
        if not (_GRAD_MODE.enabled and self.requires_grad):
            return Tensor(data)
        mask = self.data > 0

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask, fresh=True)

        return Tensor._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data * (1.0 - data), fresh=True)

        return Tensor._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - data ** 2), fresh=True)

        return Tensor._make(data, (self,), backward)

    def gelu(self) -> "Tensor":
        """GELU activation (tanh approximation, as used by DeiT).

        The cube is the product ``x * x * x``.  NumPy's ``x ** 3`` goes
        through a float64 ``power`` whose speed and last-bit rounding
        depend on the CPU's SIMD path (on an AVX-512 x86-64 host it is
        ~60x slower than the product for negative bases).
        """
        x = self.data
        c = np.sqrt(2.0 / np.pi)
        inner = c * (x + 0.044715 * (x * x * x))
        tanh_inner = np.tanh(inner)
        data = 0.5 * x * (1.0 + tanh_inner)

        def backward(grad: np.ndarray) -> None:
            d_inner = c * (1.0 + 3 * 0.044715 * x ** 2)
            derivative = 0.5 * (1.0 + tanh_inner) + 0.5 * x * (1.0 - tanh_inner ** 2) * d_inner
            self._accumulate(grad * derivative, fresh=True)

        return Tensor._make(data, (self,), backward)

    def silu(self) -> "Tensor":
        """SiLU / swish activation (used by the VMamba-style blocks)."""
        sig = 1.0 / (1.0 + np.exp(-self.data))
        data = self.data * sig

        def backward(grad: np.ndarray) -> None:
            derivative = sig * (1.0 + self.data * (1.0 - sig))
            self._accumulate(grad * derivative, fresh=True)

        return Tensor._make(data, (self,), backward)

    def softplus(self) -> "Tensor":
        """Numerically stable softplus, used for SSM timestep parameters."""
        data = np.logaddexp(0.0, self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / (1.0 + np.exp(-self.data)), fresh=True)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Softmax family
    # ------------------------------------------------------------------
    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        data = exp / exp.sum(axis=axis, keepdims=True)

        def backward(grad: np.ndarray) -> None:
            dot = (grad * data).sum(axis=axis, keepdims=True)
            self._accumulate(data * (grad - dot), fresh=True)

        return Tensor._make(data, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        data = shifted - log_sum
        softmax = np.exp(data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad - softmax * grad.sum(axis=axis, keepdims=True), fresh=True)

        return Tensor._make(data, (self,), backward)


# ----------------------------------------------------------------------
# Free functions operating on tensors
# ----------------------------------------------------------------------
def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            tensor._accumulate(grad[tuple(index)])

    return Tensor._make(data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        split = np.moveaxis(grad, axis, 0)
        for tensor, piece in zip(tensors, split):
            tensor._accumulate(piece)

    return Tensor._make(data, tuple(tensors), backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select: ``condition ? a : b`` (condition is constant)."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    condition = np.asarray(condition, dtype=bool)
    data = np.where(condition, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(_unbroadcast(grad * condition, a.shape), fresh=True)
        b._accumulate(_unbroadcast(grad * (~condition), b.shape), fresh=True)

    return Tensor._make(data, (a, b), backward)


def as_tensor(value: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy if already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)
