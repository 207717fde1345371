"""Dense float tensors with reverse-mode autodiff on an explicit tape.

A ``Tensor`` wraps a contiguous numpy array (float32 by default, float64 for
gradient checking).  Differentiable operations record a node on the active
``Tape``; ``backward(loss)`` replays the tape in exact reverse execution
order, which is always a valid reverse-topological order because every node's
inputs were created before its output.
"""
from __future__ import annotations

import contextlib
from typing import Callable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """An operand violated an operation's shape contract."""


class GradError(RuntimeError):
    """Backward pass was invoked on an invalid target."""


_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
DEFAULT_DTYPE = np.float32


def _coerce(data, dtype) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif arr.dtype not in _FLOAT_DTYPES:
        arr = arr.astype(DEFAULT_DTYPE)
    return np.ascontiguousarray(arr)


class Tensor:
    """N-dimensional float array, optionally participating in the grad tape."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _coerce(data, dtype)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

    # -- introspection -----------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{flag})"

    # -- operators are implemented in ops.py and bound at its end ----------
    def __len__(self):
        if not self.ndim:
            raise ShapeError("len() of a rank-0 tensor")
        return self.shape[0]


class Parameter(Tensor):
    """A trainable tensor with a dotted-path name used for serialization order."""

    __slots__ = ("name",)

    def __init__(self, data, name: str = "", dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)
        self.name = name

    def __repr__(self):
        return f"Parameter(name={self.name!r}, shape={self.shape})"


class _Node:
    __slots__ = ("out", "inputs", "backward_fn")

    def __init__(self, out: Tensor, inputs: Sequence[Tensor], backward_fn: Callable):
        self.out = out
        self.inputs = tuple(inputs)
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of executed differentiable ops.

    Confined to one execution context.  Ops record only inside ``with Tape()``;
    outside any tape, as under ``no_grad``, nothing is recorded or retained.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.produced: set[int] = set()

    def __len__(self):
        return len(self.nodes)

    def clear(self):
        self.nodes.clear()
        self.produced.clear()

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        popped = _TAPE_STACK.pop()
        assert popped is self, "tape stack corrupted"
        return False


_TAPE_STACK: list[Optional[Tape]] = [None]


def active_tape() -> Optional[Tape]:
    return _TAPE_STACK[-1]


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (eval-mode forward passes)."""
    _TAPE_STACK.append(None)
    try:
        yield
    finally:
        _TAPE_STACK.pop()


def record(out: Tensor, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    """Attach ``out`` to the active tape if any input participates in grad."""
    tape = _TAPE_STACK[-1]
    if tape is None:
        return out
    if not any(t.requires_grad for t in inputs):
        return out
    out.requires_grad = True
    tape.nodes.append(_Node(out, inputs, backward_fn))
    tape.produced.add(id(out))
    return out


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf reachable from ``loss``.

    Leaves recorded on the tape but not reached by the flow get a zero grad.
    The tape is consumed: it is cleared once the traversal finishes.
    """
    tape = _TAPE_STACK[-1]
    if tape is None:
        raise GradError("backward() called with grad recording disabled")
    if loss.size != 1:
        raise GradError(f"backward() needs a scalar loss, got shape {loss.shape}")
    if id(loss) not in tape.produced:
        raise GradError("loss was not produced on the active tape")

    pending: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    holders: dict[int, Tensor] = {id(loss): loss}

    for node in reversed(tape.nodes):
        g = pending.pop(id(node.out), None)
        if g is None:
            continue
        holders.pop(id(node.out), None)
        in_grads = node.backward_fn(g)
        for t, ig in zip(node.inputs, in_grads):
            if ig is None or not t.requires_grad:
                continue
            key = id(t)
            if key in pending:
                pending[key] = pending[key] + ig
            else:
                pending[key] = ig
                holders[key] = t

    # Whatever is still pending was never produced by a node: these are leaves.
    for key, g in pending.items():
        t = holders[key]
        t.grad = g if t.grad is None else t.grad + g

    # Leaves that fed the tape but received no flow get explicit zeros.
    for node in tape.nodes:
        for t in node.inputs:
            if t.requires_grad and id(t) not in tape.produced and t.grad is None:
                t.grad = np.zeros_like(t.data)

    tape.clear()


def as_tensor(value, like: Tensor) -> Tensor:
    """Wrap a python scalar / array as a constant tensor matching ``like``'s dtype."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.dtype))
