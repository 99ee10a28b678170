"""Kernel registry tests: dispatch, bit-identity, fallback, scratch, memo.

The compiled tier's whole contract is "same bits, less time" — these tests
pin the registry mechanics (closed kernel set, per-kernel fallback,
thread-local activation), byte-level agreement between every backend
kernel and its reference, the exactly-one-warning toolchain-absent
fallback, and the correctness guards of the scratch pool and the im2col
memo used by the stacked suffix cascade.
"""

import builtins
import warnings

import numpy as np
import pytest

from repro.nn import kernels
from repro.nn.kernels import reference

BACKEND = kernels.available()
needs_backend = pytest.mark.skipif(
    not BACKEND, reason="no compiled kernel backend on this machine"
)


@pytest.fixture
def fresh_registry(monkeypatch):
    """Reset registry state around a test that reconfigures backends."""
    kernels._reset_for_tests()
    yield monkeypatch
    monkeypatch.undo()
    kernels._reset_for_tests()


def rich_inputs(seed=0):
    """A batch with signed zeros, NaN and denormals mixed into the data."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 3, 7, 6))
    x[0, 0, 0, 0] = -0.0
    x[1, 2, 3, 4] = np.nan
    x[2, 1, 0, 5] = 5e-324
    return x


class TestRegistry:
    def test_kernel_names_match_reference(self):
        assert set(kernels.KERNEL_NAMES) == set(reference.KERNELS)
        assert len(kernels.KERNEL_NAMES) == 12

    def test_get_kernel_returns_callable_for_every_name(self):
        for name in kernels.KERNEL_NAMES:
            assert callable(kernels.get_kernel(name))

    def test_get_kernel_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown kernel"):
            kernels.get_kernel("batched_gemm")

    def test_backend_name_consistent_with_available(self):
        if kernels.available():
            assert kernels.backend_name() in kernels.BACKEND_ORDER
        else:
            assert kernels.backend_name() is None

    def test_warmup_idempotent_and_returns_validated_names(self):
        first = kernels.warmup()
        second = kernels.warmup()
        assert first == second
        assert set(first) <= set(kernels.KERNEL_NAMES)


def pin_default_off(monkeypatch):
    """Drop a process-wide ``REPRO_DEFAULT_ENGINE`` so the default is off."""
    monkeypatch.delenv("REPRO_DEFAULT_ENGINE", raising=False)


class TestActivation:
    def test_inactive_by_default(self, fresh_registry):
        pin_default_off(fresh_registry)
        assert not kernels.compiled_active()
        assert kernels.active("im2col") is None

    @needs_backend
    def test_use_compiled_activates_in_scope_only(self, fresh_registry):
        pin_default_off(fresh_registry)
        with kernels.use("compiled") as enabled:
            assert enabled
            assert kernels.compiled_active()
            assert kernels.active("im2col") is not None
        assert not kernels.compiled_active()

    def test_use_vectorized_pins_reference_tier(self):
        with kernels.use("vectorized") as enabled:
            assert not enabled
            assert kernels.active("im2col") is None

    @needs_backend
    def test_nested_scopes_restore_outer_state(self):
        with kernels.use("compiled"):
            with kernels.use("vectorized"):
                assert not kernels.compiled_active()
            assert kernels.compiled_active()

    @needs_backend
    def test_default_engine_env_enables_process_wide(self, fresh_registry):
        fresh_registry.setenv("REPRO_DEFAULT_ENGINE", "compiled")
        assert kernels.compiled_active()
        with kernels.use("vectorized"):
            assert not kernels.compiled_active()


@needs_backend
class TestBitIdentity:
    """Every backend kernel must agree with reference to the last byte."""

    @staticmethod
    def assert_bytes_equal(got, want):
        got, want = np.asarray(got), np.asarray(want)
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (3, 2), (2, 0)])
    def test_im2col(self, stride, padding):
        x = rich_inputs()
        self.assert_bytes_equal(
            kernels.get_kernel("im2col")(x, (3, 3), stride, padding),
            reference.im2col(x, (3, 3), stride, padding),
        )

    @pytest.mark.parametrize("size", [2, 4, 8, 16, 32])
    def test_im2col_specialized_square_planes(self, size):
        """The 3x3/s1/p1 fast paths cover these plane sizes explicitly."""
        rng = np.random.default_rng(size)
        x = rng.standard_normal((3, 5, size, size))
        self.assert_bytes_equal(
            kernels.get_kernel("im2col")(x, (3, 3), 1, 1),
            reference.im2col(x, (3, 3), 1, 1),
        )

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_col2im(self, stride, padding):
        shape = (4, 3, 7, 6)
        out_h, out_w = reference.conv2d_output_size(7, 6, (3, 3), stride, padding)
        rng = np.random.default_rng(1)
        cols = rng.standard_normal((4, 3 * 9, out_h * out_w))
        self.assert_bytes_equal(
            kernels.get_kernel("col2im")(cols, shape, (3, 3), stride, padding),
            reference.col2im(cols, shape, (3, 3), stride, padding),
        )

    @pytest.mark.parametrize(
        "kernel,stride,padding", [((1, 1), 2, 0), ((3, 3), 1, 1), ((3, 3), 2, 1)]
    )
    def test_col2im_with_weight_operand(self, kernel, stride, padding):
        """The conv input gradient: per-sample W.T @ grad, then the scatter."""
        shape = (3, 3, 7, 6)
        out_h, out_w = reference.conv2d_output_size(7, 6, kernel, stride, padding)
        rng = np.random.default_rng(9)
        weight_matrix = rng.standard_normal((5, 3 * kernel[0] * kernel[1]))
        grad = rng.standard_normal((3, 5, out_h * out_w))
        grad[1, 2, :3] = (-0.0, np.nan, 5e-324)
        self.assert_bytes_equal(
            kernels.get_kernel("col2im")(grad, shape, kernel, stride, padding, weight_matrix),
            reference.col2im(grad, shape, kernel, stride, padding, weight_matrix),
        )

    @pytest.mark.parametrize("with_bias", [True, False])
    def test_conv2d_forward(self, with_bias):
        x = rich_inputs()
        rng = np.random.default_rng(2)
        weight_matrix = rng.standard_normal((5, 3 * 9))
        bias = rng.standard_normal(5) if with_bias else None
        got_out, got_cols = kernels.get_kernel("conv2d_forward")(
            x, weight_matrix, bias, (3, 3), 1, 1
        )
        want_out, want_cols = reference.conv2d_forward(
            x, weight_matrix, bias, (3, 3), 1, 1
        )
        self.assert_bytes_equal(got_out, want_out)
        self.assert_bytes_equal(got_cols, want_cols)

    @pytest.mark.parametrize("rows", [False, True], ids=["columns", "rows"])
    @pytest.mark.parametrize(
        "x_shape,num_filters",
        [((6, 64, 1, 1), 32), ((1, 64, 1, 1), 32), ((4, 3, 7, 6), 1)],
        ids=["one_position", "one_position_single", "one_filter"],
    )
    def test_conv2d_forward_gemv_shapes(self, x_shape, num_filters, rows):
        """One output position or one filter: np.matmul issues a gemv there."""
        if rows and kernels.get_kernel("conv2d_backward") is reference.conv2d_backward:
            pytest.skip("rows are kept only by a backend providing conv2d_backward")
        rng = np.random.default_rng(7)
        x = rng.standard_normal(x_shape)
        x.reshape(-1)[:2] = (-0.0, 5e-324)
        weight_matrix = rng.standard_normal((num_filters, x_shape[1] * 9))
        bias = rng.standard_normal(num_filters)
        got_out, got_kept = kernels.get_kernel("conv2d_forward")(
            x, weight_matrix, bias, (3, 3), 1, 1, rows=rows
        )
        want_out, want_cols = reference.conv2d_forward(x, weight_matrix, bias, (3, 3), 1, 1)
        self.assert_bytes_equal(got_out, want_out)
        self.assert_bytes_equal(
            got_kept, want_cols.transpose(0, 2, 1) if rows else want_cols
        )

    @pytest.mark.parametrize(
        "kernel,stride,padding", [((1, 1), 2, 0), ((3, 3), 1, 1), ((3, 3), 2, 1)]
    )
    @pytest.mark.parametrize("batch", [4, 3, 1], ids=["full", "odd", "single"])
    def test_conv2d_backward(self, kernel, stride, padding, batch):
        """The backend pair (forward rows + backward) against the reference pair."""
        backward = kernels.get_kernel("conv2d_backward")
        if backward is reference.conv2d_backward:
            pytest.skip("backend does not provide conv2d_backward")
        x = rich_inputs()[:batch]
        rng = np.random.default_rng(5)
        weight_matrix = rng.standard_normal((5, 3 * kernel[0] * kernel[1]))
        weight_matrix[0, 0] = -0.0
        out_h, out_w = reference.conv2d_output_size(7, 6, kernel, stride, padding)
        grad = rng.standard_normal((batch, 5, out_h * out_w))
        grad[0, 0, :3] = (-0.0, np.nan, 5e-324)
        _, rows = kernels.get_kernel("conv2d_forward")(
            x, weight_matrix, None, kernel, stride, padding, rows=True
        )
        _, cols = reference.conv2d_forward(x, weight_matrix, None, kernel, stride, padding)
        got = backward(grad, rows, weight_matrix, x.shape, kernel, stride, padding)
        want = reference.conv2d_backward(
            grad, cols, weight_matrix, x.shape, kernel, stride, padding
        )
        self.assert_bytes_equal(got[0], want[0])
        self.assert_bytes_equal(got[1], want[1])

    def test_bn_fold(self):
        x = rich_inputs()
        rng = np.random.default_rng(3)
        scale, shift = rng.standard_normal(3), rng.standard_normal(3)
        self.assert_bytes_equal(
            kernels.get_kernel("bn_fold")(x, scale, shift),
            reference.bn_fold(x, scale, shift),
        )

    def test_bn_infer(self):
        x = rich_inputs()
        rng = np.random.default_rng(4)
        weight, bias = rng.standard_normal(3), rng.standard_normal(3)
        mean, var = rng.standard_normal(3), rng.random(3) + 0.1
        self.assert_bytes_equal(
            kernels.get_kernel("bn_infer")(x, weight, bias, mean, var, 1e-5),
            reference.bn_infer(x, weight, bias, mean, var, 1e-5),
        )

    @staticmethod
    def bn_train_operands(seed):
        rng = np.random.default_rng(seed)
        centered = rich_inputs(seed)
        other = rng.standard_normal(centered.shape)
        weight, std = rng.standard_normal(3), rng.random(3) + 0.1
        return rng, centered, other, weight, std

    def test_bn_normalize(self):
        rng, centered, _, weight, std = self.bn_train_operands(10)
        bias = rng.standard_normal(3)
        for got, want in zip(
            kernels.get_kernel("bn_normalize")(centered, std, weight, bias),
            reference.bn_normalize(centered, std, weight, bias),
        ):
            self.assert_bytes_equal(got, want)

    @pytest.mark.parametrize("weight_terms", [True, False])
    def test_bn_grad_terms(self, weight_terms):
        _, grad, normalised, weight, std = self.bn_train_operands(11)
        centered = normalised * std.reshape(1, 3, 1, 1)
        got = kernels.get_kernel("bn_grad_terms")(
            grad, normalised, centered, weight, std, std ** 2, weight_terms
        )
        want = reference.bn_grad_terms(
            grad, normalised, centered, weight, std, std ** 2, weight_terms
        )
        assert (got[0] is None) == (not weight_terms)
        for g, w in zip(got, want):
            if w is not None:
                self.assert_bytes_equal(g, w)

    @pytest.mark.parametrize("accumulate", [False, True], ids=["first", "onto_existing"])
    def test_bn_grad_input(self, accumulate):
        rng, terms, grad_centered, var_mean, mean = self.bn_train_operands(12)
        accum = rng.standard_normal(terms.shape) if accumulate else None
        got = kernels.get_kernel("bn_grad_input")(
            terms.copy(), var_mean, grad_centered, mean, None if accum is None else accum.copy()
        )
        want = reference.bn_grad_input(
            terms.copy(), var_mean, grad_centered, mean, None if accum is None else accum.copy()
        )
        self.assert_bytes_equal(got, want)

    def test_relu_preserves_signed_zero_and_nan(self):
        x = rich_inputs()
        got = kernels.get_kernel("relu")(x)
        want = reference.relu(x)
        self.assert_bytes_equal(got, want)
        # The mask-multiply contract, stated explicitly:
        assert np.signbit(got[0, 0, 0, 0])  # -0.0 -> -0.0 (negative maps to -0.0)
        assert np.isnan(got[1, 2, 3, 4])  # NaN propagates

    @pytest.mark.parametrize("num_bits", [2, 4, 8])
    def test_delta_table(self, num_bits):
        rng = np.random.default_rng(num_bits)
        low, high = -(1 << (num_bits - 1)), (1 << (num_bits - 1)) - 1
        values = rng.integers(low, high + 1, size=53).astype(np.int64)
        self.assert_bytes_equal(
            kernels.get_kernel("delta_table")(values, num_bits),
            reference.delta_table(values, num_bits),
        )

    def test_delta_column(self):
        for value in (-128, -1, 0, 1, 127):
            self.assert_bytes_equal(
                kernels.get_kernel("delta_column")(value, 8),
                reference.delta_column(value, 8),
            )


class TestFallback:
    """engine="compiled" with no toolchain: warn once, stay bit-identical."""

    def _disable_backends(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "none")
        monkeypatch.delenv("REPRO_DEFAULT_ENGINE", raising=False)
        # Hide numba even if it were importable, so the probe exercises the
        # true toolchain-absent path rather than relying on this box.
        original_import = builtins.__import__

        def no_numba(name, *args, **kwargs):
            if name == "numba" or name.startswith("numba."):
                raise ImportError("numba hidden for fallback test")
            return original_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", no_numba)

    def test_backend_absent_reports_unavailable(self, fresh_registry):
        self._disable_backends(fresh_registry)
        assert not kernels.available()
        assert kernels.backend_name() is None

    def test_requesting_compiled_warns_exactly_once(self, fresh_registry):
        self._disable_backends(fresh_registry)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with kernels.use("compiled") as enabled:
                assert not enabled
            with kernels.use("compiled") as enabled:
                assert not enabled
        fallback = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(fallback) == 1
        assert "falling back" in str(fallback[0].message)

    def test_fallback_results_are_reference_bit_identical(self, fresh_registry):
        self._disable_backends(fresh_registry)
        x = rich_inputs()
        rng = np.random.default_rng(7)
        weight_matrix = rng.standard_normal((5, 3 * 9))
        bias = rng.standard_normal(5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with kernels.use("compiled"):
                got_out, got_cols = kernels.conv2d_forward(
                    x, weight_matrix, bias, (3, 3), 1, 1
                )
                got_bn = kernels.bn_infer(
                    x, bias[:3], bias[:3], bias[:3], np.abs(bias[:3]) + 0.1, 1e-5
                )
                got_relu = kernels.relu(x)
                got_table = kernels.delta_table(
                    np.arange(-8, 8, dtype=np.int64), 4
                )
        want_out, want_cols = reference.conv2d_forward(
            x, weight_matrix, bias, (3, 3), 1, 1
        )
        assert got_out.tobytes() == want_out.tobytes()
        assert got_cols.tobytes() == want_cols.tobytes()
        assert got_bn.tobytes() == reference.bn_infer(
            x, bias[:3], bias[:3], bias[:3], np.abs(bias[:3]) + 0.1, 1e-5
        ).tobytes()
        assert got_relu.tobytes() == reference.relu(x).tobytes()
        assert np.array_equal(
            got_table, reference.delta_table(np.arange(-8, 8, dtype=np.int64), 4)
        )

    def test_unknown_forced_backend_falls_back(self, fresh_registry):
        fresh_registry.setenv("REPRO_KERNEL_BACKEND", "cuda")
        assert not kernels.available()


class TestScratch:
    def test_same_shape_reuses_buffer(self):
        kernels.clear_scratch()
        first = kernels.scratch_buffer("im2col", (2, 18, 9))
        second = kernels.scratch_buffer("im2col", (2, 18, 9))
        assert first is second
        assert first.shape == (2, 18, 9) and first.dtype == np.float64

    def test_distinct_shapes_and_names_get_distinct_buffers(self):
        kernels.clear_scratch()
        a = kernels.scratch_buffer("im2col", (2, 18, 9))
        b = kernels.scratch_buffer("im2col", (3, 18, 9))
        c = kernels.scratch_buffer("other", (2, 18, 9))
        assert a is not b and a is not c

    def test_clear_scratch_drops_buffers(self):
        before = kernels.scratch_buffer("im2col", (4, 4, 4))
        kernels.clear_scratch()
        after = kernels.scratch_buffer("im2col", (4, 4, 4))
        assert before is not after


class TestIm2colMemo:
    @needs_backend
    def test_repeat_forward_same_input_is_bit_identical(self):
        x = rich_inputs()
        rng = np.random.default_rng(8)
        weights = [rng.standard_normal((5, 3 * 9)) for _ in range(3)]
        want = [reference.conv2d_forward(x, w, None, (3, 3), 1, 1)[0] for w in weights]
        with kernels.use("compiled"):
            with kernels.im2col_memo() as scope:
                assert scope == {}
                got = [
                    kernels.conv2d_forward(x, w, None, (3, 3), 1, 1)[0]
                    for w in weights
                ]
                assert len(scope) == 1  # one entry per conv signature
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @needs_backend
    def test_different_input_object_is_not_served_stale_columns(self):
        """Same shape, different array: the memo must miss, not corrupt."""
        rng = np.random.default_rng(9)
        x1 = rng.standard_normal((2, 3, 5, 5))
        x2 = rng.standard_normal((2, 3, 5, 5))
        w = rng.standard_normal((4, 3 * 9))
        with kernels.use("compiled"):
            with kernels.im2col_memo():
                first = kernels.conv2d_forward(x1, w, None, (3, 3), 1, 1)[0]
                second = kernels.conv2d_forward(x2, w, None, (3, 3), 1, 1)[0]
        assert first.tobytes() == reference.conv2d_forward(
            x1, w, None, (3, 3), 1, 1
        )[0].tobytes()
        assert second.tobytes() == reference.conv2d_forward(
            x2, w, None, (3, 3), 1, 1
        )[0].tobytes()

    @needs_backend
    def test_memo_bypasses_scratch_pool(self):
        """Memoised columns must not live in the clobberable scratch buffer.

        Inside a memo scope a second same-shape conv on a different input
        would overwrite a shared scratch buffer holding the first input's
        memoised columns; the dispatcher therefore allocates fresh columns
        whenever the memo is active, even with ``reuse_scratch=True``.
        """
        rng = np.random.default_rng(10)
        x1 = rng.standard_normal((2, 3, 5, 5))
        x2 = rng.standard_normal((2, 3, 5, 5))
        w = rng.standard_normal((4, 3 * 9))
        with kernels.use("compiled"):
            with kernels.im2col_memo():
                kernels.conv2d_forward(x1, w, None, (3, 3), 1, 1, reuse_scratch=True)
                kernels.conv2d_forward(x2, w, None, (3, 3), 1, 1, reuse_scratch=True)
                # x1 hits its memo entry again; its columns must still be x1's.
                replay = kernels.conv2d_forward(x1, w, None, (3, 3), 1, 1)[0]
        assert replay.tobytes() == reference.conv2d_forward(
            x1, w, None, (3, 3), 1, 1
        )[0].tobytes()

    def test_noop_outside_compiled_tier(self, fresh_registry):
        pin_default_off(fresh_registry)
        with kernels.im2col_memo() as scope:
            assert scope is None

    @needs_backend
    def test_nested_scope_keeps_outer_memo(self):
        with kernels.use("compiled"):
            with kernels.im2col_memo() as outer:
                with kernels.im2col_memo() as inner:
                    assert inner is outer
