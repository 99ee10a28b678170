"""Tests for the reverse-mode autodiff engine, including numerical checks."""

import gc
import weakref

import numpy as np
import pytest

from repro.nn.autograd import Tensor, as_tensor, concatenate, is_grad_enabled, no_grad, stack, where


def numerical_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued ``fn`` w.r.t. ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        up = fn(x)
        flat[i] = original - eps
        down = fn(x)
        flat[i] = original
        grad_flat[i] = (up - down) / (2 * eps)
    return grad


def check_gradient(make_output, x_value, rtol=1e-4, atol=1e-6):
    """Compare autograd gradients against central differences."""
    x_value = np.asarray(x_value, dtype=np.float64)

    def scalar_fn(value):
        tensor = Tensor(value.copy(), requires_grad=True)
        return float(make_output(tensor).sum().item())

    tensor = Tensor(x_value.copy(), requires_grad=True)
    output = make_output(tensor).sum()
    output.backward()
    numeric = numerical_gradient(scalar_fn, x_value.copy())
    assert np.allclose(tensor.grad, numeric, rtol=rtol, atol=atol), (
        f"analytic {tensor.grad} vs numeric {numeric}"
    )


class TestBasics:
    def test_item_and_numpy(self):
        t = Tensor(3.5)
        assert t.item() == 3.5
        assert isinstance(t.numpy(), np.ndarray)

    def test_detach_cuts_graph(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_non_scalar_needs_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)

    def test_gradient_accumulation_over_two_backwards(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        (t * 3).sum().backward()
        (t * 3).sum().backward()
        assert np.allclose(t.grad, [6.0, 6.0])

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).sum().backward()
        t.zero_grad()
        assert t.grad is None


rng = np.random.default_rng(0)


class TestElementwiseGradients:
    def test_add_broadcast(self):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4,))
        check_gradient(lambda t: t + Tensor(b), a)
        check_gradient(lambda t: Tensor(a) + t, b)

    def test_mul_broadcast(self):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 1))
        check_gradient(lambda t: t * Tensor(b), a)
        check_gradient(lambda t: Tensor(a) * t, b)

    def test_sub_neg_div(self):
        a = rng.normal(size=(5,)) + 3.0
        b = rng.normal(size=(5,)) + 3.0
        check_gradient(lambda t: t - Tensor(b), a)
        check_gradient(lambda t: -t, a)
        check_gradient(lambda t: t / Tensor(b), a)
        check_gradient(lambda t: Tensor(a) / t, b)

    def test_pow(self):
        a = np.abs(rng.normal(size=(4,))) + 0.5
        check_gradient(lambda t: t ** 3, a)
        check_gradient(lambda t: t ** 0.5, a, rtol=1e-3)

    def test_scalar_operand(self):
        a = rng.normal(size=(3,))
        check_gradient(lambda t: 2.0 * t + 1.0, a)
        check_gradient(lambda t: 1.0 - t, a)
        check_gradient(lambda t: 2.0 / (t + 5.0), a)

    @pytest.mark.parametrize("op", ["exp", "log", "sqrt", "relu", "sigmoid", "tanh",
                                    "gelu", "silu", "softplus"])
    def test_unary_ops(self, op):
        a = np.abs(rng.normal(size=(6,))) + 0.5  # positive for log/sqrt
        check_gradient(lambda t: getattr(t, op)(), a, rtol=1e-3)

    def test_gelu_forward_cubes_by_exact_product(self):
        """The cube is ``x * x * x``, byte for byte, never ``x ** 3``."""
        x = np.random.default_rng(41).standard_normal((32, 5, 48)) * 3.0
        x[0, 0, :3] = (-0.0, 0.0, 5e-324)
        c = np.sqrt(2.0 / np.pi)
        want = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * (x * x * x))))
        assert Tensor(x).gelu().data.tobytes() == want.tobytes()

    def test_gelu_gradient_on_both_signs(self):
        check_gradient(lambda t: t.gelu(), rng.normal(size=(8,)) * 2.0, rtol=1e-3)


class TestMatmulAndReductions:
    def test_matmul_2d(self):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        check_gradient(lambda t: t.matmul(Tensor(b)), a)
        check_gradient(lambda t: Tensor(a).matmul(t), b)

    def test_matmul_batched(self):
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(2, 4, 5))
        check_gradient(lambda t: t.matmul(Tensor(b)), a, rtol=1e-3)
        check_gradient(lambda t: Tensor(a).matmul(t), b, rtol=1e-3)

    def test_matmul_broadcast_batch(self):
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(4, 5))
        check_gradient(lambda t: Tensor(a).matmul(t), b, rtol=1e-3)

    def test_sum_axes(self):
        a = rng.normal(size=(3, 4, 2))
        check_gradient(lambda t: t.sum(), a)
        check_gradient(lambda t: t.sum(axis=1), a)
        check_gradient(lambda t: t.sum(axis=(0, 2), keepdims=True), a)

    def test_mean_and_var(self):
        a = rng.normal(size=(4, 5))
        check_gradient(lambda t: t.mean(axis=0), a)
        check_gradient(lambda t: t.var(axis=1), a, rtol=1e-3)

    def test_max(self):
        a = rng.normal(size=(4, 5))
        check_gradient(lambda t: t.max(axis=1), a)

    def test_softmax_and_log_softmax(self):
        a = rng.normal(size=(3, 6))
        weights = Tensor(rng.normal(size=(3, 6)))
        check_gradient(lambda t: t.softmax(axis=-1) * weights, a, rtol=1e-3)
        check_gradient(lambda t: t.log_softmax(axis=-1) * weights, a, rtol=1e-3)

    def test_softmax_rows_sum_to_one(self):
        a = Tensor(rng.normal(size=(5, 7)))
        out = a.softmax(axis=-1)
        assert np.allclose(out.data.sum(axis=-1), 1.0)


class TestShapeOps:
    def test_reshape_transpose(self):
        a = rng.normal(size=(2, 3, 4))
        check_gradient(lambda t: t.reshape(6, 4), a)
        check_gradient(lambda t: t.transpose(2, 0, 1), a)
        check_gradient(lambda t: t.transpose(), a)

    def test_getitem(self):
        a = rng.normal(size=(4, 5))
        check_gradient(lambda t: t[1:3, :], a)
        check_gradient(lambda t: t[:, 0], a)

    def test_pad(self):
        a = rng.normal(size=(2, 3))
        check_gradient(lambda t: t.pad(((1, 1), (0, 2))), a)

    def test_concatenate_and_stack(self):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 3))
        check_gradient(lambda t: concatenate([t, Tensor(b)], axis=0), a)
        check_gradient(lambda t: concatenate([Tensor(a), t], axis=1), b)
        check_gradient(lambda t: stack([t, Tensor(b)], axis=1), a)

    def test_where(self):
        a = rng.normal(size=(4,))
        b = rng.normal(size=(4,))
        condition = np.array([True, False, True, False])
        check_gradient(lambda t: where(condition, t, Tensor(b)), a)
        check_gradient(lambda t: where(condition, Tensor(a), t), b)


class TestGraphComposition:
    def test_diamond_graph_accumulates(self):
        # y = x*x + x*x must give dy/dx = 4x.
        x = Tensor([3.0], requires_grad=True)
        y = x * x + x * x
        y.backward()
        assert np.allclose(x.grad, [12.0])

    def test_chained_mlp_like_expression(self):
        x = rng.normal(size=(5, 3))
        w1 = rng.normal(size=(3, 4))
        w2 = rng.normal(size=(4, 2))
        readout = Tensor(rng.normal(size=(5, 2)))

        def network(t):
            hidden = t.matmul(Tensor(w1)).relu()
            return hidden.matmul(Tensor(w2)).softmax(axis=-1) * readout

        check_gradient(network, x, rtol=1e-3)

    def test_backward_leaves_graph_to_reference_counting(self):
        """No reference cycle: the graph dies with its last outside reference."""
        gc.disable()
        try:
            x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            hidden = (x * 2.0).relu()
            probe = weakref.ref(hidden.data)
            loss = (hidden * hidden).sum()
            loss.backward()
            del hidden, loss
            assert probe() is None
        finally:
            gc.enable()


class TestNoGrad:
    def test_default_mode_records(self):
        assert is_grad_enabled()

    def test_no_graph_inside_context(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            out = (x * 2.0).relu().sum()
        assert not out.requires_grad
        assert out._parents == ()
        assert out._backward is None

    def test_values_identical_to_recording_path(self):
        data = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
        x = Tensor(data, requires_grad=True)
        recorded = x.silu().log_softmax(axis=-1)
        with no_grad():
            plain = x.silu().log_softmax(axis=-1)
        assert np.array_equal(recorded.data, plain.data)

    def test_mode_restored_after_exit_and_exception(self):
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()

    def test_contexts_nest(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_backward_outside_context_unaffected(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        with no_grad():
            (x * 3.0).sum()  # constant detour must not poison the graph
        loss = (x * 3.0).sum()
        loss.backward()
        assert np.array_equal(x.grad, np.full(3, 3.0))
