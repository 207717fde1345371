"""Differentiable operations: arithmetic, shape ops, conv/pool kernels,
normalizations, activations, attention, dropout and classification losses.

Every function builds its result with numpy, then registers a backward
closure on the active tape via ``record``.  Convolution keeps the
channels-first API, (B, C, *sp) tensors and (out, in, *k) weights, but works
on channels-last columns inside.  No window expansion is built whole:
``_row_blocks`` cuts the output axes of a strided window view (``_windows``)
into blocks of at most ``_BLOCK_ROWS`` rows, and copies and multiplies (or
reduces) one block at a time into a preallocated output.  It serves conv's
forward, each stride phase of the transposed-convolution input gradient
(``_conv_input_grad``) and maxpool's forward.  A conv keeps its column blocks
only while a tape records and its weight requires a gradient, whose GEMM
``sum(g_block.T @ col_block)`` is their one reader.  Eval-mode batchnorm is
one per-channel affine.
"""
from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.special import erf

from .tensor import Parameter, ShapeError, Tensor, active_tape, record

__all__ = [
    "add", "sub", "mul", "div", "neg", "matmul", "reshape", "transpose",
    "concat", "sum_", "mean", "conv", "maxpool", "avgpool",
    "global_avgpool", "batchnorm", "layernorm", "relu", "gelu", "sigmoid",
    "softmax", "linear", "mhsa", "dropout", "cross_entropy", "bce_loss",
]


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, extent in enumerate(shape):
        if extent == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _binary(a, b, fwd, bwd_a, bwd_b) -> Tensor:
    from .tensor import as_tensor
    if not isinstance(a, Tensor):
        a = as_tensor(a, b)
    if not isinstance(b, Tensor):
        b = as_tensor(b, a)
    out = Tensor(fwd(a.data, b.data))

    def backward_fn(g):
        ga = _unbroadcast(bwd_a(g, a.data, b.data), a.shape) if a.requires_grad else None
        gb = _unbroadcast(bwd_b(g, a.data, b.data), b.shape) if b.requires_grad else None
        return ga, gb

    return record(out, (a, b), backward_fn)


def add(a, b):
    return _binary(a, b, np.add, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b):
    return _binary(a, b, np.subtract, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b):
    return _binary(a, b, np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b):
    return _binary(a, b, np.divide,
                   lambda g, x, y: g / y,
                   lambda g, x, y: -g * x / (y * y))


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)
    return record(out, (a,), lambda g: (-g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul operands must have rank >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    out = Tensor(np.matmul(a.data, b.data))

    def backward_fn(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return record(out, (a, b), backward_fn)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    return record(out, (a,), lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out = Tensor(a.data.transpose(axes))
    return record(out, (a,), lambda g: (g.transpose(inverse),))


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ShapeError("concat of no parts")
    ref = parts[0].shape
    cax = axis % len(ref)
    for p in parts[1:]:
        if p.ndim != len(ref):
            raise ShapeError(f"concat rank mismatch: {p.shape} vs {ref}")
        for ax in range(len(ref)):
            if ax != cax and p.shape[ax] != ref[ax]:
                raise ShapeError(
                    f"concat extent mismatch on axis {ax}: {p.shape} vs {ref}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=cax))
    boundaries = np.cumsum([p.shape[cax] for p in parts])[:-1]

    def backward_fn(g):
        pieces = np.split(g, boundaries, axis=cax)
        return tuple(piece if p.requires_grad else None
                     for p, piece in zip(parts, pieces))

    return record(out, tuple(parts), backward_fn)


def _reduction_backward(shape: tuple, axis, keepdims: bool, count: int):
    """Backward of a reduction over ``axis`` of an input of ``shape``:
    ``g / count`` spread back over the reduced axes."""
    def backward_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / count, shape).copy(),)

    return backward_fn


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))
    return record(out, (a,), _reduction_backward(a.shape, axis, keepdims, 1))


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.size if axis is None else math.prod(
        a.shape[ax] for ax in np.atleast_1d(axis))
    out = Tensor(a.data.mean(axis=axis, keepdims=keepdims))
    return record(out, (a,), _reduction_backward(a.shape, axis, keepdims, count))


# --------------------------------------------------------------------------
# convolution / pooling
# --------------------------------------------------------------------------

def _windows(a: np.ndarray, ksizes, stride: int, first: int = 2):
    """Strided view over the spatial windows of a padded array, plus the
    output extents: the spatial axes ``first, first+1, ...`` become
    ``(*O, *K)`` in place, and the other axes keep theirs."""
    d = len(ksizes)
    st = a.strides[first:first + d]
    outs = tuple((e - kk) // stride + 1 for e, kk in zip(a.shape[first:first + d], ksizes))
    shape = a.shape[:first] + outs + tuple(ksizes) + a.shape[first + d:]
    strides = a.strides[:first] + tuple(s * stride for s in st) + st + a.strides[first + d:]
    return as_strided(a, shape, strides), outs


def _to_last(ndim: int) -> tuple:
    """Axes that move axis 1 to the end: (B, C, *sp) -> (B, *sp, C)."""
    return (0,) + tuple(range(2, ndim)) + (1,)


def _to_first(ndim: int) -> tuple:
    """Axes that move the last axis to position 1: (B, *sp, C) -> (B, C, *sp)."""
    return (0, ndim - 1) + tuple(range(1, ndim - 1))


def _channels_last(a: np.ndarray, pad) -> np.ndarray:
    """(B, C, *sp) -> (B, *sp, C), zero-padded by ``pad`` ((lo, hi) per axis).

    Unpadded, the result is a view of ``a``; padded, the transpose rides on
    the one copy that the padding makes anyway (zeros + a slice write, as
    ``np.pad``'s own cost rivals the copy on small maps).
    """
    cl = a.transpose(_to_last(a.ndim))
    if not any(map(any, pad)):
        return cl
    sp = a.shape[2:]
    out = np.zeros((a.shape[0],) + tuple(lo + e + hi for e, (lo, hi) in zip(sp, pad))
                   + (a.shape[1],), a.dtype)
    out[(slice(None),) + tuple(slice(lo, lo + e) for e, (lo, _) in zip(sp, pad))] = cl
    return out


# rows per block in ``_row_blocks``: on two threads, one BLAS call over all
# rows of a paper-scale column made OpenBLAS pack, and keep resident, ~55 MB
# more of its buffers (a paper fusion prediction's peak RSS rose 855 -> 909 MB)
_BLOCK_ROWS = 2048


def _row_blocks(view: np.ndarray, lead: int, fn, outs, kept: Optional[list] = None):
    """Call ``fn(rows, *out_blocks)`` per block of at most ``_BLOCK_ROWS``
    entries of ``view``'s first ``lead`` axes.  ``rows`` copies the block's
    windows into a (rows, window) matrix, freed after the call unless
    ``kept`` collects ``(index, rows)``; each out block is the same entries
    of an array in ``outs``, a view with its trailing axes flattened.  A
    small map is one block; larger ones are cut along one axis."""
    shape, width = view.shape[:lead], math.prod(view.shape[lead:])
    ax, inner = lead - 1, 1
    while ax > 0 and inner * shape[ax] <= _BLOCK_ROWS:
        inner, ax = inner * shape[ax], ax - 1
    step = _BLOCK_ROWS // inner
    for head in np.ndindex(*shape[:ax]):
        for i in range(0, shape[ax], step):
            index = head + (slice(i, i + step),)
            rows = view[index].reshape(-1, width)
            fn(rows, *[o[index].reshape((-1,) + o.shape[lead:]) for o in outs])
            if kept is not None:
                kept.append((index, rows))


def _conv_input_grad(g: np.ndarray, w: np.ndarray, x_shape, stride: int,
                     padding: int) -> np.ndarray:
    """Input gradient of ``conv`` as a transposed convolution.

    Padded input position ``r + q*stride`` (phase ``r`` per axis) receives
    ``sum_t g[q - t] * w[r + t*stride]``: a stride-1 correlation of ``g`` with
    the spatially flipped, in/out-swapped sub-kernel ``w[..., r::stride]``.
    The phase's outputs ``q`` in ``[lo, hi)`` read ``g[lo - (taps-1) : hi]``,
    zero-padded outside the output extent, and land on input index
    ``r + q*stride - padding``.  At stride 1 the single phase is ``gx``.
    """
    b, in_ch = x_shape[:2]
    sp = x_shape[2:]
    dims = len(sp)
    k = w.shape[2]
    # per axis, per phase r: (taps, lo, hi)
    plan = [[(len(range(r, k, stride)), max(0, -((r - padding) // stride)),
              -((r - padding - n) // stride)) for r in range(stride)] for n in sp]
    # pad g once, by the most any phase reads beyond the output extent
    outs = g.shape[2:]
    pad = [(max(0, max(t - 1 - lo for t, lo, _ in ax)),
            max(0, max(hi for _, _, hi in ax) - o)) for ax, o in zip(plan, outs)]
    gp = _channels_last(g, pad)
    # kernel as (*k, out, in), flipped per phase below: rows match col's (*taps, out)
    wl = w.transpose(tuple(range(2, dims + 2)) + (0, 1))
    flip = (slice(None, None, -1),) * dims
    gx = None if stride == 1 else np.zeros(x_shape, dtype=g.dtype)
    for phase in itertools.product(range(stride), repeat=dims):
        axes = [ax[r] for ax, r in zip(plan, phase)]
        taps = tuple(t for t, _, _ in axes)
        if 0 in taps or any(hi <= lo for _, lo, hi in axes):
            continue
        src = tuple(slice(lo - t + 1 + left, hi + left)
                    for (t, lo, hi), (left, _) in zip(axes, pad))
        view, q = _windows(gp[(slice(None),) + src], taps, 1, first=1)
        sub = wl[tuple(slice(r, None, stride) for r in phase)][flip].reshape(-1, in_ch)
        part = np.empty((b,) + q + (in_ch,), np.result_type(g, w))
        _row_blocks(view, dims + 1, lambda col, dst: np.matmul(col, sub, out=dst), (part,))
        part = part.transpose(_to_first(dims + 2))
        if gx is None:
            return np.ascontiguousarray(part)
        gx[(slice(None),) * 2 + tuple(slice(r + lo * stride - padding, None, stride)
                                      for r, (_, lo, _) in zip(phase, axes))] = part
    return gx


def conv(x: Tensor, weight: Parameter, bias: Optional[Parameter],
         stride: int = 1, padding: int = 0) -> Tensor:
    """N-d cross-correlation with stride/zero-padding, channels-first layout;
    the weight's rank sets the number of spatial axes."""
    dims = weight.ndim - 2
    if x.ndim != weight.ndim:
        raise ShapeError(f"conv expects (batch, channels, {dims} spatial axes) for a "
                         f"rank-{weight.ndim} weight; got rank {x.ndim}")
    if stride < 1 or padding < 0:
        raise ShapeError("conv requires stride >= 1 and padding >= 0")
    out_ch, in_ch = weight.shape[:2]
    k = weight.shape[2]
    if any(e != k for e in weight.shape[2:]):
        raise ShapeError(f"conv kernel must be cubic, got {weight.shape[2:]}")
    if x.shape[1] != in_ch:
        raise ShapeError(
            f"conv channel axis mismatch: input has {x.shape[1]}, weight expects {in_ch}")
    for ax, ext in enumerate(x.shape[2:]):
        if ext + 2 * padding < k:
            raise ShapeError(
                f"conv produces non-positive extent on spatial axis {ax} "
                f"(input {ext}, kernel {k}, stride {stride}, padding {padding})")

    view, outs = _windows(_channels_last(x.data, ((padding, padding),) * dims),
                          (k,) * dims, stride, first=1)
    # (out, *k, in) rows, matching the columns' (*tap, c) order
    w2 = weight.data.transpose(_to_last(dims + 2)).reshape(out_ch, -1)
    y = np.empty((x.shape[0],) + outs + (out_ch,), np.result_type(x.data, w2))
    # the column blocks, kept only for the weight gradient, their one reader
    cols = [] if weight.requires_grad and active_tape() is not None else None
    _row_blocks(view, dims + 1, lambda col, dst: np.matmul(col, w2.T, out=dst), (y,), cols)
    if bias is not None:
        y += bias.data
    out = Tensor(y.transpose(_to_first(dims + 2)))

    def backward_fn(g):
        gx = gw = gb = None
        if bias is not None and bias.requires_grad:
            gb = g.sum(axis=(0,) + tuple(range(2, g.ndim)))
        if cols is not None:
            gl = g.transpose(_to_last(g.ndim))
            gw = sum(gl[index].reshape(-1, out_ch).T @ col for index, col in cols)
            gw = gw.reshape((out_ch,) + (k,) * dims + (in_ch,))
            gw = np.ascontiguousarray(gw.transpose(_to_first(gw.ndim)))
        if x.requires_grad:
            gx = _conv_input_grad(g, weight.data, x.shape, stride, padding)
        return (gx, gw, gb) if bias is not None else (gx, gw)

    inputs = (x, weight, bias) if bias is not None else (x, weight)
    return record(out, inputs, backward_fn)


def maxpool(x: Tensor, k: int, stride: int, padding: int = 0) -> Tensor:
    """Windowed maximum over every axis after the channels; backward routes to
    the first argmax in row-major order."""
    dims = x.ndim - 2
    if k < 1 or stride < 1:
        raise ShapeError("maxpool requires k >= 1 and stride >= 1")
    for ax, ext in enumerate(x.shape[2:]):
        if ext + 2 * padding < k:
            raise ShapeError(
                f"maxpool window {k} larger than padded input on spatial axis {ax}")
    b, c = x.shape[:2]
    neg = np.array(-np.inf, dtype=x.dtype)
    padded = np.pad(x.data, ((0, 0), (0, 0)) + ((padding, padding),) * dims,
                    constant_values=neg) if padding else x.data
    view, outs = _windows(padded, (k,) * dims, stride)
    n_out = int(np.prod(outs))
    y, arg = np.empty((b, c) + outs, x.dtype), np.empty((b, c) + outs, np.intp)

    def reduce(win, top, where):
        np.argmax(win, axis=1, out=where)
        top[:] = np.take_along_axis(win, where[:, None], axis=1)[:, 0]

    _row_blocks(view, dims + 2, reduce, (y, arg))
    out = Tensor(y)

    padded_sp = padded.shape[2:]

    def backward_fn(g):
        kidx = np.unravel_index(arg.reshape(b * c, n_out), (k,) * dims)
        oidx = np.unravel_index(np.arange(n_out), outs)
        pos = np.ravel_multi_index(tuple(t + o * stride for t, o in zip(kidx, oidx)),
                                   padded_sp)
        plane = math.prod(padded_sp)
        dpad = np.zeros(b * c * plane, dtype=g.dtype)
        np.add.at(dpad, (pos + np.arange(b * c)[:, None] * plane).ravel(), g.ravel())
        dpad = dpad.reshape((b, c) + padded_sp)
        if padding:
            crop = tuple(slice(padding, padding + e) for e in x.shape[2:])
            dpad = dpad[(slice(None), slice(None)) + crop]
        return (dpad,)

    return record(out, (x,), backward_fn)


def avgpool(x: Tensor, k: int, stride: int) -> Tensor:
    """Windowed mean over every axis after the channels, divisor k^dims.

    Axes shorter than ``k`` clamp the window to the full extent (divisor uses
    the actual window size), so degenerate extent-1 axes pass through instead
    of erroring; full windows behave exactly as the strict definition.
    """
    if k < 1 or stride < 1:
        raise ShapeError("avgpool requires k >= 1 and stride >= 1")
    ksizes = tuple(min(k, ext) for ext in x.shape[2:])
    b, c = x.shape[:2]
    view, outs = _windows(x.data, ksizes, stride)
    n_out = int(np.prod(outs))
    divisor = int(np.prod(ksizes))
    flat = np.ascontiguousarray(view).reshape(b, c, n_out, divisor)
    out = Tensor(flat.mean(axis=3).reshape((b, c) + tuple(outs)))

    def backward_fn(g):
        share = g / divisor
        dx = np.zeros_like(x.data)
        for kidx in np.ndindex(*ksizes):
            dx[(slice(None), slice(None)) + tuple(
                slice(i, i + stride * o, stride) for i, o in zip(kidx, outs))] += share
        return (dx,)

    return record(out, (x,), backward_fn)


def global_avgpool(x: Tensor) -> Tensor:
    """Mean over every spatial position, one value per channel: (B, C)."""
    if x.ndim < 3:
        raise ShapeError("global_avgpool needs at least one spatial axis")
    return mean(x, axis=tuple(range(2, x.ndim)))


# --------------------------------------------------------------------------
# normalization
# --------------------------------------------------------------------------

def batchnorm(x: Tensor, scale: Parameter, shift: Parameter,
              running_mean: np.ndarray, running_var: np.ndarray,
              mode: str, momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Per-channel batch normalization over batch and spatial axes.

    Train mode normalizes by biased batch statistics and updates the running
    buffers in place (running variance uses the unbiased estimate); eval mode
    applies the running statistics.
    """
    if x.ndim < 2:
        raise ShapeError("batchnorm input needs a channel axis")
    ch = x.shape[1]
    if scale.shape != (ch,) or shift.shape != (ch,):
        raise ShapeError(f"batchnorm affine parameters must have shape ({ch},)")
    if x.shape[0] == 0:
        raise ShapeError("batchnorm on an empty batch")
    axes = (0,) + tuple(range(2, x.ndim))
    bshape = (1, ch) + (1,) * (x.ndim - 2)

    if mode == "train":
        m = x.data.mean(axis=axes)
        v = x.data.var(axis=axes)
        n = x.size // ch
        unbiased = v * n / (n - 1) if n > 1 else v
        running_mean *= (1.0 - momentum)
        running_mean += momentum * m
        running_var *= (1.0 - momentum)
        running_var += momentum * unbiased
        inv = 1.0 / np.sqrt(v + eps)
        xhat = (x.data - m.reshape(bshape)) * inv.reshape(bshape)
        out = Tensor(xhat * scale.data.reshape(bshape) + shift.data.reshape(bshape))

        def backward_fn(g):
            gs = gh = gx = None
            if scale.requires_grad:
                gs = (g * xhat).sum(axis=axes)
            if shift.requires_grad:
                gh = g.sum(axis=axes)
            if x.requires_grad:
                dxhat = g * scale.data.reshape(bshape)
                mean_dxhat = dxhat.mean(axis=axes).reshape(bshape)
                mean_dxhat_x = (dxhat * xhat).mean(axis=axes).reshape(bshape)
                gx = (dxhat - mean_dxhat - xhat * mean_dxhat_x) * inv.reshape(bshape)
            return gx, gs, gh

        return record(out, (x, scale, shift), backward_fn)

    if mode != "eval":
        raise ValueError(f"batchnorm mode must be 'train' or 'eval', got {mode!r}")
    inv = 1.0 / np.sqrt(running_var + eps)
    m = running_mean.copy()     # train mode updates the buffer in place
    a = (scale.data * inv).astype(x.dtype).reshape(bshape)
    y = x.data * a
    y += (shift.data - m * scale.data * inv).astype(x.dtype).reshape(bshape)
    out = Tensor(y)

    def backward_fn(g):
        gs = gh = gx = None
        if scale.requires_grad:
            xhat = (x.data - m.reshape(bshape)) * inv.reshape(bshape)
            gs = (g * xhat).sum(axis=axes)
        if shift.requires_grad:
            gh = g.sum(axis=axes)
        if x.requires_grad:
            gx = g * a
        return gx, gs, gh

    return record(out, (x, scale, shift), backward_fn)


def layernorm(x: Tensor, scale: Parameter, shift: Parameter,
              eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if scale.shape != (d,) or shift.shape != (d,):
        raise ShapeError(f"layernorm affine parameters must have shape ({d},)")
    m = x.data.mean(axis=-1, keepdims=True)
    v = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(v + eps)
    xhat = (x.data - m) * inv
    out = Tensor(xhat * scale.data + shift.data)

    def backward_fn(g):
        gs = gh = gx = None
        if scale.requires_grad:
            gs = (g * xhat).reshape(-1, d).sum(axis=0)
        if shift.requires_grad:
            gh = g.reshape(-1, d).sum(axis=0)
        if x.requires_grad:
            dxhat = g * scale.data
            gx = (dxhat - dxhat.mean(axis=-1, keepdims=True)
                  - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) * inv
        return gx, gs, gh

    return record(out, (x, scale, shift), backward_fn)


# --------------------------------------------------------------------------
# activations
# --------------------------------------------------------------------------

def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0))
    return record(out, (x,), lambda g: (g * (x.data > 0),))


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: Tensor) -> Tensor:
    """Exact erf formulation: x * Phi(x)."""
    phi = (0.5 * (1.0 + erf(x.data * _INV_SQRT2))).astype(x.dtype)
    out = Tensor(x.data * phi)

    def backward_fn(g):
        pdf = (np.exp(-0.5 * x.data * x.data) * _INV_SQRT_2PI).astype(x.dtype)
        return (g * (phi + x.data * pdf),)

    return record(out, (x,), backward_fn)


def sigmoid(x: Tensor) -> Tensor:
    # split on sign to keep exp() bounded
    e = np.exp(-np.abs(x.data))
    y = np.where(x.data >= 0, 1.0, e) / (1.0 + e)
    out = Tensor(y.astype(x.dtype))
    return record(out, (x,), lambda g: (g * out.data * (1.0 - out.data),))


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis, computed with max subtraction."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def backward_fn(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return ((g - dot) * y,)

    return record(out, (x,), backward_fn)


# --------------------------------------------------------------------------
# linear / attention / dropout
# --------------------------------------------------------------------------

def linear(x: Tensor, weight: Parameter, bias: Optional[Parameter] = None) -> Tensor:
    """Affine map y = x W^T + b for weight of shape (out, in)."""
    if x.shape[-1] != weight.shape[1]:
        raise ShapeError(
            f"linear input dim {x.shape[-1]} does not match weight in-dim {weight.shape[1]}")
    y = np.matmul(x.data, weight.data.T)
    if bias is not None:
        y = y + bias.data
    out = Tensor(y)

    def backward_fn(g):
        gx = gw = gb = None
        if x.requires_grad:
            gx = np.matmul(g, weight.data)
        if weight.requires_grad:
            gw = np.matmul(g.reshape(-1, g.shape[-1]).T,
                           x.data.reshape(-1, x.shape[-1]))
        if bias is not None and bias.requires_grad:
            gb = g.reshape(-1, g.shape[-1]).sum(axis=0)
        return (gx, gw, gb) if bias is not None else (gx, gw)

    inputs = (x, weight, bias) if bias is not None else (x, weight)
    return record(out, inputs, backward_fn)


def mhsa(tokens: Tensor, heads: int, wq: Parameter, wk: Parameter,
         wv: Parameter, wo: Parameter) -> Tensor:
    """Multi-head self-attention over a (B, N, d) or (N, d) token stack.

    Per head: Softmax(Q K^T / sqrt(d/heads)) V; heads are re-concatenated and
    passed through the output projection.  Composed entirely from taped
    primitives, so the backward pass needs no dedicated code.
    """
    squeeze = tokens.ndim == 2
    if squeeze:
        tokens = reshape(tokens, (1,) + tokens.shape)
    if tokens.ndim != 3:
        raise ShapeError("mhsa expects token stacks of rank 2 or 3")
    b, n, d = tokens.shape
    if d % heads != 0:
        raise ShapeError(f"embedding dim {d} not divisible by {heads} heads")
    dh = d // heads

    def project(w):
        p = matmul(tokens, w)                       # (B, N, d)
        p = reshape(p, (b, n, heads, dh))
        return transpose(p, (0, 2, 1, 3))           # (B, h, N, dh)

    q, k_, v = project(wq), project(wk), project(wv)
    scores = matmul(q, transpose(k_, (0, 1, 3, 2)))
    scores = mul(scores, 1.0 / math.sqrt(dh))
    attn = softmax(scores)
    ctx = matmul(attn, v)                           # (B, h, N, dh)
    ctx = reshape(transpose(ctx, (0, 2, 1, 3)), (b, n, d))
    out = matmul(ctx, wo)
    if squeeze:
        out = reshape(out, (n, d))
    return out


def dropout(x: Tensor, p: float, mode: str,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if mode == "eval" or p == 0.0:
        return x
    if mode != "train":
        raise ValueError(f"dropout mode must be 'train' or 'eval', got {mode!r}")
    if rng is None:
        raise ValueError("dropout in train mode needs an rng")
    keep = (rng.random(x.shape) >= p).astype(x.dtype)
    scale = 1.0 / (1.0 - p)
    out = Tensor(x.data * keep * scale)
    return record(out, (x,), lambda g: (g * keep * scale,))


# --------------------------------------------------------------------------
# losses
# --------------------------------------------------------------------------

def cross_entropy(logits: Tensor, targets, class_weights=None,
                  label_smoothing: float = 0.0) -> Tensor:
    """Mean softmax cross-entropy over a batch of integer targets.

    Label smoothing maps the one-hot target to y(1-eps) + eps/K; per-sample
    losses are weighted by the target class weight and normalized by the
    summed weights (plain mean when no weights are given).
    """
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects (batch, classes) logits, got {logits.shape}")
    b, k = logits.shape
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    if targets.shape[0] != b:
        raise ShapeError(f"{targets.shape[0]} targets for batch of {b}")
    if targets.min(initial=0) < 0 or targets.max(initial=0) >= k:
        raise ValueError(f"target index out of range for {k} classes")

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    y = np.full((b, k), label_smoothing / k, dtype=logits.dtype)
    y[np.arange(b), targets] += 1.0 - label_smoothing
    if class_weights is not None:
        w = np.asarray(class_weights, dtype=logits.dtype)[targets]
    else:
        w = np.ones(b, dtype=logits.dtype)
    wsum = w.sum()
    per_sample = -(y * logp).sum(axis=1)
    out = Tensor(np.asarray((per_sample * w).sum() / wsum, dtype=logits.dtype))

    def backward_fn(g):
        if not logits.requires_grad:
            return (None,)
        p = np.exp(logp)
        return (g * (p - y) * (w / wsum)[:, None],)

    return record(out, (logits,), backward_fn)


_BCE_CLAMP = 1e-7


def bce_loss(probs: Tensor, targets) -> Tensor:
    """Mean binary cross-entropy on probabilities clamped to [1e-7, 1-1e-7]."""
    targets = np.asarray(targets, dtype=probs.dtype).reshape(-1)
    flat = probs.data.reshape(-1)
    if flat.shape != targets.shape:
        raise ShapeError(f"{targets.shape[0]} targets for {flat.shape[0]} probabilities")
    if np.any((targets != 0) & (targets != 1)):
        raise ValueError("bce targets must be 0 or 1")
    p = np.clip(flat, _BCE_CLAMP, 1.0 - _BCE_CLAMP)
    n = flat.shape[0]
    out = Tensor(np.asarray(
        -(targets * np.log(p) + (1.0 - targets) * np.log(1.0 - p)).mean(),
        dtype=probs.dtype))

    def backward_fn(g):
        if not probs.requires_grad:
            return (None,)
        inside = (flat > _BCE_CLAMP) & (flat < 1.0 - _BCE_CLAMP)
        dp = (-(targets / p) + (1.0 - targets) / (1.0 - p)) / n
        return ((g * dp * inside).reshape(probs.shape),)

    return record(out, (probs,), backward_fn)


# -- operator bindings -------------------------------------------------------

Tensor.__add__ = add
Tensor.__radd__ = lambda self, other: add(other, self)
Tensor.__sub__ = sub
Tensor.__rsub__ = lambda self, other: sub(other, self)
Tensor.__mul__ = mul
Tensor.__rmul__ = lambda self, other: mul(other, self)
Tensor.__truediv__ = div
Tensor.__rtruediv__ = lambda self, other: div(other, self)
Tensor.__neg__ = neg
Tensor.__matmul__ = matmul
Tensor.reshape = reshape
Tensor.sum = sum_
Tensor.mean = mean
