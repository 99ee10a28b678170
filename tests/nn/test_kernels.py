"""Kernel registry tests: dispatch, bit-identity, fallback, scratch, memo.

The C kernels' whole contract is "same bits, less time" — these tests
pin the registry mechanics (closed kernel set, per-kernel fallback,
thread-local activation, the process-wide backend), byte-level agreement
between every backend kernel and its reference, the silent
toolchain-absent fallback, and the correctness guards of the scratch
pool and the im2col memo used by the stacked suffix cascade.
"""

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


def pin_process_numpy(monkeypatch):
    """Pin the NumPy kernels process-wide with ``REPRO_KERNEL_BACKEND=none``.

    The backend is probed first: ``none`` at the first probe would keep
    the C library from loading at all.
    """
    kernels.available()
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "none")


class TestActivation:
    @needs_backend
    def test_active_by_default(self, fresh_registry):
        fresh_registry.delenv("REPRO_KERNEL_BACKEND", raising=False)
        assert kernels.compiled_active()
        assert kernels.active("im2col") is not None

    def test_process_numpy_pin_turns_kernels_off(self, fresh_registry):
        pin_process_numpy(fresh_registry)
        assert not kernels.compiled_active()
        assert kernels.active("im2col") is None

    @needs_backend
    def test_default_follows_in_process_env_changes(self, monkeypatch):
        # No registry reset between the switches: the variable is read on
        # every unscoped dispatch, so it may never go stale.
        for backend in ("cc", "none", "cc", "none"):
            monkeypatch.setenv("REPRO_KERNEL_BACKEND", backend)
            assert kernels.compiled_active() == (backend == "cc"), backend

    @needs_backend
    def test_engine_tier_does_not_pick_the_kernels(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        for tier in ("reference", "compiled"):
            monkeypatch.setenv("REPRO_DEFAULT_ENGINE", tier)
            assert kernels.compiled_active(), tier

    @needs_backend
    def test_use_cc_activates_in_scope_only(self, fresh_registry):
        pin_process_numpy(fresh_registry)
        with kernels.use("cc") as enabled:
            assert enabled
            assert kernels.compiled_active()
            assert kernels.active("im2col") is not None
        assert not kernels.compiled_active()

    def test_use_none_pins_reference_kernels(self):
        with kernels.use("none") as enabled:
            assert not enabled
            assert kernels.active("im2col") is None

    def test_use_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="kernel backend"):
            kernels.use("bogus")

    @needs_backend
    def test_nested_scopes_restore_outer_state(self):
        with kernels.use("cc"):
            with kernels.use("none"):
                assert not kernels.compiled_active()
            assert kernels.compiled_active()

    @needs_backend
    def test_hold_keeps_the_enclosing_choice(self):
        for backend in ("none", "cc"):
            with kernels.use(backend), kernels.hold() as enabled:
                assert enabled == (backend == "cc"), backend

    @needs_backend
    def test_kernel_backend_env_enables_process_wide(self, fresh_registry):
        fresh_registry.setenv("REPRO_KERNEL_BACKEND", "cc")
        assert kernels.compiled_active()
        with kernels.use("none"):
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
    """The compiled default with no toolchain: silent, bit-identical."""

    def _disable_backends(self, monkeypatch):
        # ``none`` at the registry's first probe: the library never loads.
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "none")

    def test_backend_absent_reports_unavailable(self, fresh_registry):
        self._disable_backends(fresh_registry)
        assert not kernels.available()
        assert kernels.backend_name() is None

    def test_fallback_is_silent(self, fresh_registry):
        self._disable_backends(fresh_registry)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not kernels.compiled_active()
            with kernels.use("cc") as enabled:
                assert not enabled

    def test_fallback_results_are_reference_bit_identical(self, fresh_registry):
        self._disable_backends(fresh_registry)
        x = rich_inputs()
        rng = np.random.default_rng(7)
        weight_matrix = rng.standard_normal((5, 3 * 9))
        bias = rng.standard_normal(5)
        with kernels.use("cc"):
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
        with kernels.use("cc"):
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
        with kernels.use("cc"):
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
        with kernels.use("cc"):
            with kernels.im2col_memo():
                kernels.conv2d_forward(x1, w, None, (3, 3), 1, 1, reuse_scratch=True)
                kernels.conv2d_forward(x2, w, None, (3, 3), 1, 1, reuse_scratch=True)
                # x1 hits its memo entry again; its columns must still be x1's.
                replay = kernels.conv2d_forward(x1, w, None, (3, 3), 1, 1)[0]
        assert replay.tobytes() == reference.conv2d_forward(
            x1, w, None, (3, 3), 1, 1
        )[0].tobytes()

    def test_noop_on_numpy_kernels(self, fresh_registry):
        pin_process_numpy(fresh_registry)
        with kernels.im2col_memo() as scope:
            assert scope is None

    @needs_backend
    def test_nested_scope_keeps_outer_memo(self):
        with kernels.use("cc"):
            with kernels.im2col_memo() as outer:
                with kernels.im2col_memo() as inner:
                    assert inner is outer
