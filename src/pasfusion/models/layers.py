"""Minimal layer/module system over the tensor core.

Modules auto-register parameters and submodules by attribute name, which
yields the dotted parameter paths used for checkpoint ordering (e.g.
``mri.dense.block1.layer3.conv2.weight``).
"""
from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .. import ndcore as ndc
from ..ndcore import ContainerError, Parameter, Tensor


def _fitting(state: dict[str, np.ndarray], key: str, shape) -> np.ndarray:
    if key not in state:
        raise ContainerError(f"checkpoint missing {key!r}")
    if state[key].shape != shape:
        raise ContainerError(f"checkpoint shape {state[key].shape} != {shape} for {key!r}")
    return state[key]


class Module:
    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "training", True)
        object.__setattr__(self, "capture", False)
        object.__setattr__(self, "captured", None)

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray):
        """Non-trainable state (running statistics) carried in checkpoints."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """Pre-order walk: this module under ``prefix``, then each submodule
        subtree in registration order, under its dotted path."""
        yield prefix, self
        for name, mod in self._modules.items():
            yield from mod.named_modules(f"{prefix}.{name}" if prefix else name)

    def named_parameters(self) -> Iterator[tuple[str, Parameter]]:
        for path, mod in self.named_modules():
            for name, p in mod._params.items():
                yield (f"{path}.{name}" if path else name), p

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self) -> Iterator[tuple[str, np.ndarray]]:
        for path, mod in self.named_modules():
            for name, b in mod._buffers.items():
                yield (f"{path}.{name}" if path else name), b

    def modules(self) -> Iterator["Module"]:
        return (mod for _, mod in self.named_modules())

    def train(self, mode: bool = True):
        for mod in self.modules():
            object.__setattr__(mod, "training", mode)
        return self

    def eval(self):
        return self.train(False)

    @property
    def mode(self) -> str:
        return "train" if self.training else "eval"

    def finalize_names(self):
        """Stamp dotted paths onto parameters once the tree is assembled."""
        for name, p in self.named_parameters():
            p.name = name
        return self

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def state_arrays(self) -> dict[str, np.ndarray]:
        state = {name: p.data for name, p in self.named_parameters()}
        for name, b in self.named_buffers():
            state[f"buffer.{name}"] = b
        return state

    def load_state_arrays(self, state: dict[str, np.ndarray], prefix: str = ""):
        """Copy matching arrays into parameters/buffers; a checkpoint that does
        not fit (a missing key, a wrong shape) raises ``ContainerError``."""
        for name, p in self.named_parameters():
            p.data = np.ascontiguousarray(_fitting(state, prefix + name, p.shape), dtype=p.dtype)
        for name, b in self.named_buffers():
            b[...] = _fitting(state, f"buffer.{prefix}{name}", b.shape)
        return self

    def __call__(self, *args, **kwargs):
        """Run ``forward``; while ``capture`` is set, cut the tape at the output.

        The output is replaced by a leaf with ``requires_grad=True``, kept as
        ``captured``.  Downstream ops record against that leaf, so a backward
        pass from a score leaves the score's gradient at this module in
        ``captured.grad``.
        """
        out = self.forward(*args, **kwargs)
        if self.capture:
            out = self.captured = Tensor(out.data, requires_grad=True)
        return out

    def forward(self, *args, **kwargs):
        raise NotImplementedError


class ModuleList(Module):
    def __init__(self, mods):
        super().__init__()
        self._list = list(mods)
        for i, mod in enumerate(self._list):
            setattr(self, str(i), mod)

    def __iter__(self):
        return iter(self._list)

    def __getitem__(self, idx):
        return self._list[idx]

    def __len__(self):
        return len(self._list)


def kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """He-uniform fan-in init U(-b, b), b = sqrt(6/fan_in): numpy's -b + 2b*u in blocks."""
    bound, block = math.sqrt(6.0 / fan_in), 1 << 16
    out = np.empty(math.prod(shape), np.float32)
    for start in range(0, out.size, block):
        part = rng.random(min(block, out.size - start))
        np.subtract(part * (2.0 * bound), bound, out=out[start:start + part.size])
    return out.reshape(shape)


class Conv(Module):
    """Constructors allocate zeros; ``init_parameters`` draws the weights so
    one deterministic walk owns every random draw."""

    def __init__(self, in_ch: int, out_ch: int, k: int, stride: int = 1,
                 padding: int = 0, dims: int = 3, bias: bool = True):
        super().__init__()
        self.stride = stride
        self.padding = padding
        self.fan_in = in_ch * k ** dims
        self.weight = Parameter(np.zeros((out_ch, in_ch) + (k,) * dims, np.float32))
        self.bias = Parameter(np.zeros(out_ch, np.float32)) if bias else None

    def _init(self, rng):
        self.weight.data = kaiming_uniform(rng, self.weight.shape, self.fan_in)
        if self.bias is not None:
            self.bias.data = np.zeros(self.bias.shape, np.float32)

    def forward(self, x: Tensor) -> Tensor:
        return ndc.conv(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class BatchNorm(Module):
    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.momentum = momentum
        self.eps = eps
        self.scale = Parameter(np.ones(channels, np.float32))
        self.shift = Parameter(np.zeros(channels, np.float32))
        self.register_buffer("running_mean", np.zeros(channels, np.float32))
        self.register_buffer("running_var", np.ones(channels, np.float32))

    def _init(self, rng):
        self.scale.data = np.ones(self.scale.shape, np.float32)
        self.shift.data = np.zeros(self.shift.shape, np.float32)
        self.running_mean[...] = 0.0
        self.running_var[...] = 1.0

    def forward(self, x: Tensor) -> Tensor:
        return ndc.batchnorm(x, self.scale, self.shift, self.running_mean,
                             self.running_var, mode=self.mode,
                             momentum=self.momentum, eps=self.eps)


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.scale = Parameter(np.ones(dim, np.float32))
        self.shift = Parameter(np.zeros(dim, np.float32))

    def _init(self, rng):
        self.scale.data = np.ones(self.scale.shape, np.float32)
        self.shift.data = np.zeros(self.shift.shape, np.float32)

    def forward(self, x: Tensor) -> Tensor:
        return ndc.layernorm(x, self.scale, self.shift, eps=self.eps)


class Linear(Module):
    def __init__(self, in_dim: int, out_dim: int, bias: bool = True):
        super().__init__()
        self.fan_in = in_dim
        self.weight = Parameter(np.zeros((out_dim, in_dim), np.float32))
        self.bias = Parameter(np.zeros(out_dim, np.float32)) if bias else None

    def _init(self, rng):
        self.weight.data = kaiming_uniform(rng, self.weight.shape, self.fan_in)
        if self.bias is not None:
            self.bias.data = np.zeros(self.bias.shape, np.float32)

    def forward(self, x: Tensor) -> Tensor:
        return ndc.linear(x, self.weight, self.bias)


class Dropout(Module):
    """Dropout whose randomness comes from a shared, reseedable generator."""

    def __init__(self, p: float, rng_holder: "RngHolder"):
        super().__init__()
        self.p = p
        self.rng_holder = rng_holder

    def forward(self, x: Tensor) -> Tensor:
        return ndc.dropout(x, self.p, mode=self.mode, rng=self.rng_holder.rng)


class RngHolder:
    """Shared mutable RNG slot so a whole model can be reseeded in one call."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def reseed(self, seed: int):
        self.rng = np.random.default_rng(seed)


class CapturePoint(Module):
    """Pass-through module that makes a tensor with no module of its own (a
    post-activation feature map) a Grad-CAM target; ``Module.__call__`` does
    the capture."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Attention(Module):
    """Multi-head self-attention projections (no biases, per the math)."""

    def __init__(self, dim: int, heads: int):
        super().__init__()
        self.heads = heads
        self.dim = dim
        for name in ("wq", "wk", "wv", "wo"):
            setattr(self, name, Parameter(np.zeros((dim, dim), np.float32)))

    def _init(self, rng):
        for name in ("wq", "wk", "wv", "wo"):
            getattr(self, name).data = kaiming_uniform(rng, (self.dim, self.dim), self.dim)

    def forward(self, tokens: Tensor) -> Tensor:
        return ndc.mhsa(tokens, self.heads, self.wq, self.wk, self.wv, self.wo)


def init_parameters(model: Module, seed: int) -> Module:
    """Deterministically (re)initialize every parameter of ``model``.

    Conv/linear weights are Kaiming-uniform over fan-in, biases zero, norm
    affines identity, positional embeddings N(0, 0.02); modules are visited
    in registration order so equal seeds give byte-identical parameters.
    """
    rng = np.random.default_rng(seed)
    for mod in model.modules():
        init = getattr(mod, "_init", None)
        if init is not None:
            init(rng)
    return model
