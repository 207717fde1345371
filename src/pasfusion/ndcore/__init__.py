from .tensor import (
    GradError,
    Parameter,
    ShapeError,
    Tape,
    Tensor,
    active_tape,
    backward,
    no_grad,
)
from . import ops
from .ops import (
    avgpool,
    batchnorm,
    bce_loss,
    concat,
    conv,
    cross_entropy,
    dropout,
    gelu,
    global_avgpool,
    layernorm,
    linear,
    matmul,
    maxpool,
    mean,
    mhsa,
    relu,
    reshape,
    sigmoid,
    softmax,
    sum_,
    transpose,
)
from .serialize import ContainerError, dump_arrays, load_arrays
from .threads import branches

__all__ = [
    "Tensor", "Parameter", "Tape", "no_grad", "backward", "active_tape", "branches",
    "ShapeError", "GradError", "ops",
    "conv", "maxpool", "avgpool", "global_avgpool", "batchnorm", "layernorm",
    "relu", "gelu", "sigmoid", "softmax", "linear", "concat", "mhsa", "dropout", "cross_entropy", "bce_loss",
    "matmul", "reshape", "transpose", "mean", "sum_",
    "dump_arrays", "load_arrays", "ContainerError",
]
