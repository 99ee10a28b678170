"""8-bit post-training quantization (PTQ) of model weights.

Following the BFA line of work the paper quantizes every weight tensor to
``nq = 8`` bits with a symmetric per-tensor scale: ``w_int = round(w / s)``
clipped to ``[-128, 127]`` with ``s = max|w| / 127``.  The quantized integer
representation is what physically resides in DRAM, so it is the object the
bit-flip attack manipulates; the float data used in the forward pass is
always ``w_int * s`` and is re-synchronised after every flip.

Only weight tensors of convolution and linear layers are quantized (biases
and normalisation parameters are small and typically held in higher
precision), matching the standard BFA threat model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn.bitops import int_range
from repro.nn.layers.conv import Conv1d, Conv2d
from repro.nn.layers.linear import Linear
from repro.nn.module import Module
from repro.nn.parameter import Parameter

#: Bit width used throughout the paper.
DEFAULT_NUM_BITS = 8

#: Named victim deployment precisions accepted by the experiment layer.
#:
#: ``"float32"`` is the historical default: a float-trained victim whose
#: DRAM image is produced by the paper's standard 8-bit PTQ at attack time
#: (numerically identical to ``"int8"``, kept for spec backward
#: compatibility).  ``"int8"`` names the same deployment explicitly, and
#: ``"int4"`` deploys the victim at 4-bit precision — flip deltas, scales
#: and the DRAM bit layout all follow the narrower two's-complement width.
VICTIM_PRECISIONS: Dict[str, int] = {
    "float32": DEFAULT_NUM_BITS,
    "int8": 8,
    "int4": 4,
}


def precision_num_bits(victim_precision: str) -> int:
    """Quantization bit width implied by a named victim precision.

    Raises ``ValueError`` for unknown names so invalid experiment specs
    fail at validation time rather than mid-run.
    """
    try:
        return VICTIM_PRECISIONS[victim_precision]
    except KeyError as exc:
        known = ", ".join(sorted(VICTIM_PRECISIONS))
        raise ValueError(
            f"unknown victim precision {victim_precision!r}; known precisions: {known}"
        ) from exc


@dataclass(frozen=True)
class QuantizedTensorInfo:
    """Description of one quantized weight tensor."""

    name: str
    shape: Tuple[int, ...]
    num_weights: int
    num_bits: int
    scale: float

    @property
    def num_bits_total(self) -> int:
        """Total number of bits the tensor occupies in memory."""
        return self.num_weights * self.num_bits


def quantize_array(weights: np.ndarray, num_bits: int = DEFAULT_NUM_BITS) -> Tuple[np.ndarray, float]:
    """Symmetric per-tensor quantization of a float array.

    Returns ``(int_weights, scale)`` with ``int_weights`` in the signed
    ``num_bits`` range.  An all-zero tensor gets a scale of 1.0, and so
    does one whose largest magnitude is so small (subnormal) that
    ``max_abs / high`` underflows to zero.
    """
    low, high = int_range(num_bits)
    max_abs = float(np.max(np.abs(weights))) if weights.size else 0.0
    scale = max_abs / high
    if not scale > 0:
        scale = 1.0
    int_weights = np.clip(np.round(weights / scale), low, high).astype(np.int32)
    return int_weights, scale


def dequantize_array(int_weights: np.ndarray, scale: float) -> np.ndarray:
    """Inverse of :func:`quantize_array`."""
    return int_weights.astype(np.float64) * scale


def _is_quantizable(module: Module, parameter_name: str) -> bool:
    return isinstance(module, (Conv2d, Conv1d, Linear)) and parameter_name == "weight"


def quantize_model(model: Module, num_bits: int = DEFAULT_NUM_BITS) -> List[QuantizedTensorInfo]:
    """Apply post-training quantization to every conv/linear weight in place.

    Returns one :class:`QuantizedTensorInfo` per quantized tensor, in the
    deterministic traversal order of ``named_modules`` — the same order used
    when the weight bits are laid out in DRAM, so indices are stable across
    the whole attack pipeline.
    """
    infos: List[QuantizedTensorInfo] = []
    for module_name, module in model.named_modules():
        for parameter_name, parameter in module._parameters.items():
            if not _is_quantizable(module, parameter_name):
                continue
            int_weights, scale = quantize_array(parameter.data, num_bits)
            parameter.attach_quantization(int_weights, scale, num_bits)
            qualified = f"{module_name}.{parameter_name}" if module_name else parameter_name
            infos.append(
                QuantizedTensorInfo(
                    name=qualified,
                    shape=tuple(parameter.data.shape),
                    num_weights=int(parameter.data.size),
                    num_bits=num_bits,
                    scale=scale,
                )
            )
    if not infos:
        raise ValueError("model contains no quantizable conv/linear weight tensors")
    return infos


def quantized_parameters(model: Module) -> Dict[str, Parameter]:
    """Mapping of qualified name -> quantized parameter (attack targets)."""
    result: Dict[str, Parameter] = {}
    for name, parameter in model.named_parameters():
        if parameter.is_quantized:
            result[name] = parameter
    return result


def total_quantized_bits(model: Module) -> int:
    """Total number of weight bits the quantized model occupies in DRAM."""
    return sum(p.size * p.num_bits for p in quantized_parameters(model).values())


def quantization_error(model: Module) -> float:
    """Mean absolute quantization error over all quantized tensors."""
    errors = []
    for parameter in quantized_parameters(model).values():
        reconstructed = dequantize_array(parameter.int_repr, parameter.scale)
        errors.append(np.abs(reconstructed - parameter.data).mean())
    return float(np.mean(errors)) if errors else 0.0
