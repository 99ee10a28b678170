"""Bit-identity of the fast training step.

Batch norm runs as one fused autograd node in training and inference
mode, layer norm as one node with gradients and one NumPy pass without,
and the conv backward dispatches through the kernel registry
(``conv2d_backward``), whose C implementation keeps im2col *rows* instead
of columns.  All are pure speed-ups: every trained weight and gradient
must stay byte-identical to the Tensor-primitive composition and the
``tensordot`` backward they replace.
These tests build those oracles in-test and compare bytes.  Evaluation
runs without a graph, and its logits must equal a graph-mode forward's;
training and evaluation fix the kernel dispatch once per call.
"""

import numpy as np
import pytest

from repro.models.deit import deit_tiny
from repro.models.m11 import m11
from repro.models.resnet_cifar import ResNetCifar
from repro.models.vmamba import vmamba_tiny
from repro.nn import functional, kernels, training
from repro.nn.autograd import Tensor, no_grad
from repro.nn.kernels import reference
from repro.nn.layers import norm
from repro.nn.layers.norm import BatchNorm1d, BatchNorm2d, LayerNorm
from repro.nn.loss import cross_entropy
from repro.nn.optim import Adam
from repro.nn.quantization import quantize_model
from repro.utils.rng import derive_rng

BACKEND = kernels.available()
needs_backend = pytest.mark.skipif(
    not BACKEND, reason="no compiled kernel backend on this machine"
)


def state_bytes(model):
    return {name: np.ascontiguousarray(value).tobytes() for name, value in model.state_dict().items()}


# ----------------------------------------------------------------------
# Oracles: the composed training graph the fast path replaced
# ----------------------------------------------------------------------
def composed_batch_norm(layer, x, axes, shape):
    """Training-mode batch norm composed from Tensor primitives."""
    mean = x.mean(axis=axes, keepdims=True)
    var = x.var(axis=axes, keepdims=True)
    layer.running_mean[...] = (
        (1 - layer.momentum) * layer.running_mean + layer.momentum * mean.data.reshape(-1)
    )
    layer.running_var[...] = (
        (1 - layer.momentum) * layer.running_var + layer.momentum * var.data.reshape(-1)
    )
    normalised = (x - mean) / ((var + layer.eps) ** 0.5)
    return normalised * layer.weight.reshape(shape) + layer.bias.reshape(shape)


def composed_eval_batch_norm(layer, x, shape):
    """Inference-mode batch norm composed from Tensor primitives."""
    inv_std = Tensor((1.0 / np.sqrt(layer.running_var + layer.eps)).reshape(shape))
    scale = layer.weight.reshape(shape) * inv_std
    shift = layer.bias.reshape(shape) - Tensor(layer.running_mean.reshape(shape)) * scale
    return x * scale + shift


def composed_layer_norm(layer, x):
    """Layer norm composed from Tensor primitives."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    normalised = (x - mean) / ((var + layer.eps) ** 0.5)
    return normalised * layer.weight + layer.bias


def oracle_conv2d(x, weight, bias=None, stride=1, padding=0):
    """Conv node on the reference forward and the tensordot backward."""
    batch = x.shape[0]
    out_channels, _, kh, kw = weight.shape
    out_h, out_w = reference.conv2d_output_size(x.shape[2], x.shape[3], (kh, kw), stride, padding)
    weight_matrix = weight.data.reshape(out_channels, -1)
    out, cols = reference.conv2d_forward(
        x.data, weight_matrix, None if bias is None else bias.data, (kh, kw), stride, padding
    )
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        grad_flat = grad.reshape(batch, out_channels, out_h * out_w)
        if weight.requires_grad:
            grad_weight = np.tensordot(grad_flat, cols, axes=([0, 2], [0, 2]))
            weight._accumulate(grad_weight.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_flat.sum(axis=(0, 2)))
        if x.requires_grad:
            grad_cols = np.matmul(weight_matrix.T, grad_flat)
            x._accumulate(reference.col2im(grad_cols, x.shape, (kh, kw), stride, padding))

    return Tensor._make(out.reshape(batch, out_channels, out_h, out_w), parents, backward)


# ----------------------------------------------------------------------
# Fused batch-norm node vs the composed graph
# ----------------------------------------------------------------------
CASES = [
    (BatchNorm2d, (5, 4, 6, 7), (0, 2, 3), (1, 4, 1, 1)),
    (BatchNorm1d, (5, 4, 19), (0, 2), (1, 4, 1)),
]


def run_batch_norm(fused, cls, x_shape, axes, shape, second_consumer=False, frozen_weight=False):
    rng = np.random.default_rng(11)
    layer = cls(x_shape[1])
    layer.weight.data = rng.standard_normal(x_shape[1])
    layer.bias.data = rng.standard_normal(x_shape[1])
    if frozen_weight:
        layer.weight.requires_grad = False
    x = Tensor(rng.standard_normal(x_shape) * 3.0 + 1.0, requires_grad=True)
    upstream = rng.standard_normal(x_shape)
    out = layer(x) if fused else composed_batch_norm(layer, x, axes, shape)
    loss = (out * Tensor(upstream)).sum()
    if second_consumer:
        # x also feeds a second branch, so x.grad accumulates across nodes.
        loss = loss + (x * x).sum() + (x * Tensor(upstream)).sum()
    loss.backward()
    return [
        out.data, layer.running_mean, layer.running_var, x.grad,
        layer.weight.grad, layer.bias.grad,
    ]


class TestFusedBatchNorm:
    @staticmethod
    def assert_same(got, want):
        for g, w in zip(got, want):
            if w is None:
                assert g is None
            else:
                assert g.shape == w.shape
                assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("cls,x_shape,axes,shape", CASES)
    def test_matches_composed_graph(self, cls, x_shape, axes, shape):
        self.assert_same(
            run_batch_norm(True, cls, x_shape, axes, shape),
            run_batch_norm(False, cls, x_shape, axes, shape),
        )

    @pytest.mark.parametrize("cls,x_shape,axes,shape", CASES)
    def test_second_consumer_keeps_accumulation_order(self, cls, x_shape, axes, shape):
        self.assert_same(
            run_batch_norm(True, cls, x_shape, axes, shape, second_consumer=True),
            run_batch_norm(False, cls, x_shape, axes, shape, second_consumer=True),
        )

    @pytest.mark.parametrize("cls,x_shape,axes,shape", CASES)
    def test_frozen_weight(self, cls, x_shape, axes, shape):
        got = run_batch_norm(True, cls, x_shape, axes, shape, frozen_weight=True)
        want = run_batch_norm(False, cls, x_shape, axes, shape, frozen_weight=True)
        assert got[4] is None
        self.assert_same(got, want)

    @pytest.mark.parametrize("cls,x_shape,axes,shape", CASES)
    def test_no_grad_training_mode_updates_statistics(self, cls, x_shape, axes, shape):
        rng = np.random.default_rng(12)
        data = rng.standard_normal(x_shape)
        fused, composed = cls(x_shape[1]), cls(x_shape[1])
        with no_grad():
            got = fused(Tensor(data, requires_grad=True))
            want = composed_batch_norm(composed, Tensor(data, requires_grad=True), axes, shape)
        assert not got.requires_grad and got._backward is None
        assert got.data.tobytes() == want.data.tobytes()
        assert fused.running_mean.tobytes() == composed.running_mean.tobytes()
        assert fused.running_var.tobytes() == composed.running_var.tobytes()

    @pytest.mark.parametrize("frozen", [None, "weight", "bias", "x"])
    @pytest.mark.parametrize("cls,x_shape,axes,shape", CASES)
    def test_eval_node_matches_composed_graph(self, cls, x_shape, axes, shape, frozen):
        """Inference mode with gradients (the attack's gradient pass)."""
        results = []
        for fused in (True, False):
            rng = np.random.default_rng(13)
            layer = cls(x_shape[1])
            layer.weight.data = rng.standard_normal(x_shape[1])
            layer.bias.data = rng.standard_normal(x_shape[1])
            layer.running_mean[...] = rng.standard_normal(x_shape[1])
            layer.running_var[...] = rng.random(x_shape[1]) + 0.2
            layer.eval()
            if frozen in ("weight", "bias"):
                getattr(layer, frozen).requires_grad = False
            x = Tensor(rng.standard_normal(x_shape), requires_grad=frozen != "x")
            out = layer(x) if fused else composed_eval_batch_norm(layer, x, shape)
            loss = (out * Tensor(rng.standard_normal(x_shape))).sum() + (x * x).sum()
            if loss.requires_grad:
                loss.backward()
            results.append([
                out.data, x.grad, layer.weight.grad, layer.bias.grad,
                layer.running_mean.copy(),
            ])
        self.assert_same(*results)


# ----------------------------------------------------------------------
# Fused layer-norm node vs the composed graph
# ----------------------------------------------------------------------
LAYER_NORM_SHAPES = [(7, 12), (3, 5, 8)]


def run_layer_norm(fused, x_shape, consumer=None, frozen=None, existing_grad=False):
    """Forward + backward of one layer norm; returns every byte it produced.

    ``consumer`` adds a second use of ``x`` before (``"before"``) or after
    (``"after"``) the layer in the loss, so ``x.grad`` accumulates across
    nodes; ``existing_grad`` seeds ``x.grad`` before the backward.
    """
    rng = np.random.default_rng(14)
    layer = LayerNorm(x_shape[-1])
    layer.weight.data = rng.standard_normal(x_shape[-1])
    layer.bias.data = rng.standard_normal(x_shape[-1])
    if frozen in ("weight", "bias"):
        getattr(layer, frozen).requires_grad = False
    x = Tensor(rng.standard_normal(x_shape) * 3.0 + 1.0, requires_grad=frozen != "x")
    if existing_grad:
        x.grad = rng.standard_normal(x_shape)
    upstream = Tensor(rng.standard_normal(x_shape))
    out = layer(x) if fused else composed_layer_norm(layer, x)
    loss = (out * upstream).sum()
    if consumer == "before":
        loss = (x * x).sum() + loss
    elif consumer == "after":
        loss = loss + (x * upstream).sum()
    loss.backward()
    return [out.data, x.grad, layer.weight.grad, layer.bias.grad]


class TestFusedLayerNorm:
    assert_same = staticmethod(TestFusedBatchNorm.assert_same)

    @pytest.mark.parametrize("x_shape", LAYER_NORM_SHAPES)
    def test_matches_composed_graph(self, x_shape):
        got = run_layer_norm(True, x_shape)
        self.assert_same(got, run_layer_norm(False, x_shape))
        assert all(value is not None for value in got)

    @pytest.mark.parametrize("consumer", ["before", "after"])
    @pytest.mark.parametrize("x_shape", LAYER_NORM_SHAPES)
    def test_second_consumer_keeps_accumulation_order(self, x_shape, consumer):
        self.assert_same(
            run_layer_norm(True, x_shape, consumer=consumer),
            run_layer_norm(False, x_shape, consumer=consumer),
        )

    @pytest.mark.parametrize("frozen", ["weight", "bias", "x"])
    @pytest.mark.parametrize("x_shape", LAYER_NORM_SHAPES)
    def test_frozen_operand(self, x_shape, frozen):
        got = run_layer_norm(True, x_shape, frozen=frozen)
        want = run_layer_norm(False, x_shape, frozen=frozen)
        assert got[("x", "weight", "bias").index(frozen) + 1] is None
        self.assert_same(got, want)

    @pytest.mark.parametrize("x_shape", LAYER_NORM_SHAPES)
    def test_accumulates_into_existing_gradient(self, x_shape):
        self.assert_same(
            run_layer_norm(True, x_shape, existing_grad=True, consumer="after"),
            run_layer_norm(False, x_shape, existing_grad=True, consumer="after"),
        )

    @pytest.mark.parametrize("x_shape", LAYER_NORM_SHAPES)
    def test_no_grad_forward_matches_and_records_nothing(self, x_shape):
        rng = np.random.default_rng(15)
        layer = LayerNorm(x_shape[-1])
        layer.weight.data = rng.standard_normal(x_shape[-1])
        layer.bias.data = rng.standard_normal(x_shape[-1])
        data = rng.standard_normal(x_shape)
        data.reshape(-1)[:3] = (-0.0, 5e-324, 1e100)
        x = Tensor(data, requires_grad=True)
        with no_grad():
            got = layer(x)
            want = composed_layer_norm(layer, x)
        assert not got.requires_grad and got._backward is None
        assert got.data.tobytes() == want.data.tobytes()
        # Nothing needs a gradient: the same pass with grad mode on.
        layer.weight.requires_grad = layer.bias.requires_grad = False
        plain = layer(Tensor(data))
        assert plain._backward is None
        assert plain.data.tobytes() == want.data.tobytes()


# ----------------------------------------------------------------------
# conv2d_backward: pairing with the forward
# ----------------------------------------------------------------------
def conv_node(x_data, weight_data, stride, padding):
    x = Tensor(x_data, requires_grad=True)
    weight = Tensor(weight_data, requires_grad=True)
    out = functional.conv2d(x, weight, stride=stride, padding=padding)
    out.backward(np.random.default_rng(21).standard_normal(out.shape))
    return out.data, weight.grad, x.grad


class TestConvBackwardPairing:
    @needs_backend
    def test_hidden_backward_falls_back_with_forward(self, monkeypatch):
        """Without a backend conv2d_backward the forward keeps columns."""
        rng = np.random.default_rng(22)
        x_data = rng.standard_normal((3, 2, 7, 7))
        weight_data = rng.standard_normal((4, 2, 3, 3))
        with kernels.use("none"):
            want = conv_node(x_data, weight_data, 2, 1)
        monkeypatch.setitem(kernels._state, "kernels", {
            name: impl for name, impl in kernels._state["kernels"].items()
            if name != "conv2d_backward"
        })
        with kernels.use("cc"):
            out, run = kernels.conv2d_train_forward(
                x_data, weight_data.reshape(4, -1), None, (3, 3), 2, 1, True
            )
            got = conv_node(x_data, weight_data, 2, 1)
        # The closure kept the (N, K, L) columns, not (N, L, K) rows.
        kept = [
            cell.cell_contents for cell in run.__closure__
            if isinstance(cell.cell_contents, np.ndarray)
        ]
        assert any(array.shape == (3, 18, 16) for array in kept)
        assert not any(array.shape == (3, 16, 18) for array in kept)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @needs_backend
    def test_kernel_switch_between_forward_and_backward(self):
        """The backward bound at forward time reads the layout it was given."""
        rng = np.random.default_rng(23)
        x_data = rng.standard_normal((3, 2, 6, 6))
        weight_matrix = rng.standard_normal((4, 18))
        grad = rng.standard_normal((3, 4, 36))
        with kernels.use("cc"):
            _, run = kernels.conv2d_train_forward(x_data, weight_matrix, None, (3, 3), 1, 1, True)
        with kernels.use("none"):
            got = run(grad, True)
        _, cols = reference.conv2d_forward(x_data, weight_matrix, None, (3, 3), 1, 1)
        want = reference.conv2d_backward(grad, cols, weight_matrix, x_data.shape, (3, 3), 1, 1)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_frozen_weight_keeps_nothing(self):
        rng = np.random.default_rng(24)
        x_data = rng.standard_normal((2, 2, 5, 5))
        weight_matrix = rng.standard_normal((3, 18))
        for backend in ("none", "cc"):
            with kernels.use(backend):
                _, run = kernels.conv2d_train_forward(
                    x_data, weight_matrix, None, (3, 3), 1, 1, False
                )
                grad_weight, grad_x = run(rng.standard_normal((2, 3, 25)), True)
            kept = [
                cell.cell_contents for cell in run.__closure__
                if isinstance(cell.cell_contents, np.ndarray)
            ]
            assert all(array is weight_matrix for array in kept)
            assert grad_weight is None
            assert grad_x.shape == x_data.shape


# ----------------------------------------------------------------------
# Training golden test: kernel backends and oracle agree on the trained bytes
# ----------------------------------------------------------------------
def tiny_resnet():
    # depth 8: one block per stage; stages 1 and 2 open with a downsample.
    return ResNetCifar(depth=8, num_classes=3, base_width=4, rng=derive_rng(5))


def tiny_m11():
    return m11(num_classes=3, base_width=4, rng=derive_rng(6))


def train_few_batches(model, sample_shape, oracle=False, backend="none", monkeypatch=None):
    rng = np.random.default_rng(31)
    # 13 samples in batches of 6: an odd last batch of one sample.
    x = rng.standard_normal((13,) + sample_shape)
    y = rng.integers(0, 3, size=13)
    if oracle:
        monkeypatch.setattr(functional, "conv2d", oracle_conv2d)
        monkeypatch.setattr(
            norm, "_batch_norm_train",
            lambda layer, x, axes, shape: composed_batch_norm(layer, x, axes, shape),
        )
        monkeypatch.setattr(norm, "_layer_norm_node", composed_layer_norm)
    optimizer = Adam(model.parameters(), lr=1e-2)
    model.train()
    with kernels.use(backend):
        for _ in range(2):
            for start in range(0, 13, 6):
                optimizer.zero_grad()
                loss = cross_entropy(model(Tensor(x[start:start + 6])), y[start:start + 6])
                loss.backward()
                optimizer.step()
    if oracle:
        monkeypatch.undo()
    return state_bytes(model)


def tiny_deit():
    return deit_tiny(num_classes=3, rng=derive_rng(7), image_size=8)


def tiny_vmamba():
    return vmamba_tiny(num_classes=3, rng=derive_rng(8), image_size=8)


@pytest.mark.parametrize(
    "factory,sample_shape",
    [
        (tiny_resnet, (3, 8, 8)), (tiny_m11, (1, 256)),
        (tiny_deit, (3, 8, 8)), (tiny_vmamba, (3, 8, 8)),
    ],
    ids=["resnet_cifar", "m11", "deit_tiny", "vmamba_tiny"],
)
class TestTrainingGolden:
    def test_numpy_kernels_match_oracle(self, factory, sample_shape, monkeypatch):
        want = train_few_batches(factory(), sample_shape, oracle=True, monkeypatch=monkeypatch)
        got = train_few_batches(factory(), sample_shape)
        assert got.keys() == want.keys()
        for name in want:
            assert got[name] == want[name], name

    @needs_backend
    def test_cc_kernels_match_numpy(self, factory, sample_shape):
        want = train_few_batches(factory(), sample_shape)
        got = train_few_batches(factory(), sample_shape, backend="cc")
        for name in want:
            assert got[name] == want[name], name


def test_adopted_gradients_never_share_memory():
    """First gradient contributions adopted without a copy stay unaliased."""
    model = tiny_resnet()
    model.train()
    rng = np.random.default_rng(32)
    for backend in ("none", "cc"):
        model.zero_grad()
        with kernels.use(backend):
            loss = cross_entropy(model(Tensor(rng.standard_normal((4, 3, 8, 8)))), [0, 1, 2, 0])
            loss.backward()
        grads = [p.grad for p in model.parameters()]
        assert all(g is not None for g in grads)
        for i, first in enumerate(grads):
            for second in grads[i + 1:]:
                assert not np.shares_memory(first, second)



BACKENDS = ("none", pytest.param("cc", marks=needs_backend))


class TestGradientFreeEvaluate:
    @pytest.mark.parametrize("quantized", [False, True], ids=["float", "int8"])
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("factory", [tiny_resnet, tiny_deit], ids=["resnet_cifar", "deit_tiny"])
    def test_logits_equal_graph_mode(self, factory, backend, quantized, monkeypatch):
        model = factory()
        if quantized:
            quantize_model(model)
        model.eval()
        rng = np.random.default_rng(33)
        x = rng.standard_normal((13, 3, 8, 8))
        y = rng.integers(0, 3, size=13)
        with kernels.use(backend):
            graph = [model(Tensor(x[start:start + 6])) for start in range(0, 13, 6)]
        assert all(logits.requires_grad for logits in graph)

        seen = {}
        forward = model.forward

        def recording_forward(batch):
            logits = forward(batch)
            seen.setdefault("requires_grad", []).append(logits.requires_grad)
            return logits

        def recording_accuracy(logits, labels):
            seen["logits"] = logits
            return 0.0

        monkeypatch.setattr(model, "forward", recording_forward)
        monkeypatch.setattr(training, "accuracy", recording_accuracy)
        with kernels.use(backend):
            training.evaluate(model, x, y, batch_size=6)
        assert seen["requires_grad"] == [False, False, False]
        want = np.concatenate([logits.data for logits in graph])
        assert seen["logits"].tobytes() == want.tobytes()


class TestDispatchScope:
    """Training and evaluation decide the kernels once per call."""

    def _model(self, dataset):
        return ResNetCifar(depth=8, num_classes=dataset.num_classes, base_width=4, rng=derive_rng(9))

    def test_process_backend_read_a_bounded_number_of_times(self, tiny_dataset, monkeypatch):
        reads = []
        dispatches = []
        process_backend = kernels.process_backend
        active = kernels.active
        monkeypatch.setattr(kernels, "process_backend", lambda: reads.append(1) or process_backend())
        monkeypatch.setattr(kernels, "active", lambda name: dispatches.append(name) or active(name))
        training.train(self._model(tiny_dataset), tiny_dataset, epochs=1, batch_size=16)
        assert len(dispatches) > 100
        assert len(reads) <= 2  # train() and its closing evaluate()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_outer_scope_still_decides(self, tiny_dataset, monkeypatch, backend):
        returned = []
        active = kernels.active

        def spy(name):
            impl = active(name)
            returned.append(impl)
            return impl

        monkeypatch.setattr(kernels, "active", spy)
        with kernels.use(backend):
            training.train(self._model(tiny_dataset), tiny_dataset, epochs=1, batch_size=16)
        assert returned
        if backend == "none":
            assert all(impl is None for impl in returned)
        else:
            assert any(impl is not None for impl in returned)
