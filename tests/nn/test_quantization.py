"""Tests for 8-bit post-training quantization."""

import numpy as np
import pytest

from repro.nn.autograd import Tensor
from repro.nn.layers import Conv2d, Linear, ReLU, Sequential
from repro.nn.quantization import (
    DEFAULT_NUM_BITS,
    dequantize_array,
    quantize_array,
    quantize_model,
    quantized_parameters,
    total_quantized_bits,
)

rng = np.random.default_rng(4)


class TestQuantizeArray:
    def test_range_and_scale(self):
        weights = rng.normal(size=(64,))
        ints, scale = quantize_array(weights, 8)
        assert ints.min() >= -128 and ints.max() <= 127
        assert scale == pytest.approx(np.abs(weights).max() / 127)

    def test_reconstruction_error_bounded_by_half_scale(self):
        weights = rng.normal(size=(256,))
        ints, scale = quantize_array(weights, 8)
        reconstructed = dequantize_array(ints, scale)
        assert np.max(np.abs(reconstructed - weights)) <= scale / 2 + 1e-12

    def test_all_zero_tensor(self):
        ints, scale = quantize_array(np.zeros(10), 8)
        assert scale == 1.0 and np.all(ints == 0)

    def test_extreme_value_maps_to_127(self):
        weights = np.array([-2.0, 0.0, 2.0])
        ints, _ = quantize_array(weights, 8)
        assert ints.tolist() == [-127, 0, 127]


class TestQuantizeModel:
    def _model(self):
        return Sequential(Conv2d(3, 4, 3, padding=1, rng=rng), ReLU(), Linear(4, 2, rng=rng))

    def test_only_conv_and_linear_weights_quantized(self):
        model = self._model()
        infos = quantize_model(model)
        names = {info.name for info in infos}
        assert names == {"0.weight", "2.weight"}
        quantized = quantized_parameters(model)
        assert set(quantized) == names
        # Biases stay unquantized.
        assert not model[0].bias.is_quantized

    def test_model_without_quantizable_layers_rejected(self):
        with pytest.raises(ValueError):
            quantize_model(Sequential(ReLU()))

    def test_forward_still_works_and_outputs_similar(self):
        model = self._model()
        x = Tensor(rng.normal(size=(2, 3, 4, 4)))
        before = model(x).data.copy()
        quantize_model(model)
        after = model(x).data
        assert np.allclose(before, after, atol=0.2)

    def test_total_quantized_bits(self):
        model = self._model()
        quantize_model(model)
        expected = (4 * 3 * 3 * 3 + 2 * 4) * DEFAULT_NUM_BITS
        assert total_quantized_bits(model) == expected

    def test_infos_follow_traversal_order_and_metadata(self):
        model = self._model()
        infos = quantize_model(model)
        assert infos[0].name == "0.weight"
        assert infos[0].num_bits_total == infos[0].num_weights * 8
        assert infos[0].shape == (4, 3, 3, 3)

    def test_flipping_int_repr_changes_forward(self):
        model = self._model()
        quantize_model(model)
        x = Tensor(rng.normal(size=(1, 3, 4, 4)))
        before = model(x).data.copy()
        parameter = quantized_parameters(model)["0.weight"]
        parameter.int_repr.flat[0] = -128
        parameter.sync_from_int()
        after = model(x).data
        assert not np.allclose(before, after)


def test_subnormal_maximum_keeps_a_nonzero_scale_and_in_range_ints():
    from repro.nn.quantization import quantize_array

    weights = np.array([5e-324, 0.0, -5e-324])
    int_weights, scale = quantize_array(weights, 8)
    assert scale > 0
    assert int_weights.tolist() == [0, 0, 0]
    assert int_weights.min() >= -128 and int_weights.max() <= 127
