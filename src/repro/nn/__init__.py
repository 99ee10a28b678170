"""A from-scratch numpy deep-learning framework.

The framework exists because the bit-flip attack needs three capabilities
from the DNN substrate: (1) a forward pass whose weights live in an 8-bit
quantized representation, (2) gradients of the task loss with respect to
those weights, and (3) the ability to flip an individual bit of a weight and
immediately observe the changed network function.  The subpackage provides:

* :mod:`repro.nn.autograd` — reverse-mode automatic differentiation;
* :mod:`repro.nn.layers` — the layer library (conv/linear/norm/attention/SSM);
* :mod:`repro.nn.quantization` / :mod:`repro.nn.bitops` — 8-bit PTQ and
  two's-complement bit manipulation;
* :mod:`repro.nn.data` / :mod:`repro.nn.training` — synthetic datasets and
  the training loop used to produce surrogate victims.
"""

from repro.nn.autograd import Tensor, as_tensor, concatenate, is_grad_enabled, no_grad, stack, where
from repro.nn.inference import SuffixEvaluator
from repro.nn.data import (
    Dataset,
    build_dataset,
    make_cifar_like,
    make_imagenet_like,
    make_speech_commands_like,
)
from repro.nn.loss import CrossEntropyLoss, accuracy, cross_entropy
from repro.nn.module import ForwardStage, Module
from repro.nn.optim import SGD, Adam
from repro.nn.parameter import Parameter
from repro.nn.quantization import (
    DEFAULT_NUM_BITS,
    QuantizedTensorInfo,
    quantize_model,
    quantized_parameters,
    total_quantized_bits,
)
from repro.nn.training import TrainingResult, evaluate, evaluate_on_dataset, predict, train

__all__ = [
    "Tensor",
    "as_tensor",
    "concatenate",
    "is_grad_enabled",
    "no_grad",
    "stack",
    "where",
    "ForwardStage",
    "SuffixEvaluator",
    "Dataset",
    "build_dataset",
    "make_cifar_like",
    "make_imagenet_like",
    "make_speech_commands_like",
    "CrossEntropyLoss",
    "accuracy",
    "cross_entropy",
    "Module",
    "SGD",
    "Adam",
    "Parameter",
    "DEFAULT_NUM_BITS",
    "QuantizedTensorInfo",
    "quantize_model",
    "quantized_parameters",
    "total_quantized_bits",
    "TrainingResult",
    "evaluate",
    "evaluate_on_dataset",
    "predict",
    "train",
]
