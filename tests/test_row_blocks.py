"""Conv's two algorithms and the row-blocked kernels, against the loop oracles.

``ops._BLOCK_ROWS`` is shrunk so that one call runs through many blocks:
partial last blocks, blocks that hold part of the batch, and blocks that cut
an output axis in the middle.  Each conv case also runs on the tap path
(``ops._TAP_MIN_WORK``), whose grid can be mostly padding, except a larger
kernel at stride > 1: ``conv`` runs it on the columns at every size, so it
runs there once.
Every result is checked against the loop oracles at the tolerances of the
unblocked tests.
"""
import math
import tracemalloc

import numpy as np
import pytest

from pasfusion import ndcore as ndc
from pasfusion.ndcore import ops

from oracles import (conv_nd_loops, conv_nd_vjp_loops, maxpool_nd_loops,
                     maxpool_nd_vjp_loops)

# 1: one row a block; 4: runs of one output axis; 13: the same, or two of
# three samples and then one where a sample has at most 6 output positions
BLOCK_ROWS = (1, 4, 13)


@pytest.mark.parametrize("rows", [1, 2, 5, 12, 24, 100])
@pytest.mark.parametrize("shape", [(3, 4, 2), (2, 3, 2, 2), (1, 7), (5,)])
def test_blocks_partition_rows_in_order(monkeypatch, rows, shape):
    monkeypatch.setattr(ops, "_BLOCK_ROWS", rows)
    view = np.arange(math.prod(shape) * 2.0).reshape(shape + (2,))
    out, kept, sizes = np.zeros(shape + (2,)), [], []

    def fill(block, out_block):
        assert block.shape == out_block.shape and np.shares_memory(out_block, out)
        out_block[:] = block
        sizes.append(len(block))

    ops._row_blocks(view, len(shape), fill, (out,), kept)
    np.testing.assert_array_equal(out, view)
    assert max(sizes) <= rows and sum(sizes) == math.prod(shape)
    assert (len(sizes) == 1) == (math.prod(shape) <= rows)
    for index, block in kept:
        np.testing.assert_array_equal(block, view[index].reshape(-1, 2))
    np.testing.assert_array_equal(np.concatenate([b for _, b in kept]), view.reshape(-1, 2))


# (dims, k, stride, padding); sp = (k + 1, k + 2, k) is ragged at every stride > 1
CONV_CASES = [
    (2, 1, 1, 0), (2, 1, 2, 0), (2, 3, 1, 1), (2, 3, 2, 1), (2, 7, 1, 3), (2, 7, 2, 2),
    (3, 1, 1, 0), (3, 1, 2, 0), (3, 3, 1, 1), (3, 3, 2, 1), (3, 7, 1, 0), (3, 7, 2, 1),
    # k < stride: inputs that no window reads; padding = k - 1: outputs of padding alone
    (2, 2, 3, 1), (3, 1, 3, 0), (2, 3, 2, 2), (3, 3, 1, 2), (2, 5, 3, 4),
    # a padded strided 1x1: grid index 0 holds padding, and an axis may hold no input
    (2, 1, 2, 1), (3, 1, 3, 2),
]


@pytest.mark.parametrize("dims,k,stride,padding", CONV_CASES)
def test_conv_matches_oracles_across_blocks(monkeypatch, each_conv_path, dims, k, stride,
                                            padding):
    rng = np.random.default_rng(808)
    sp = (k + 1, k + 2, k)[:dims]
    x = rng.normal(size=(3, 2) + sp)
    w = rng.normal(size=(3, 2) + (k,) * dims)
    b = rng.normal(size=3)
    want_y = conv_nd_loops(x, w, b, stride, padding)
    g = rng.normal(size=want_y.shape)
    want = conv_nd_vjp_loops(x, w, g, stride, padding)
    for path in each_conv_path(k, stride):
        for rows in BLOCK_ROWS if path == "columns" else BLOCK_ROWS[-1:]:
            monkeypatch.setattr(ops, "_BLOCK_ROWS", rows)
            with ndc.Tape():
                xt = ndc.Tensor(x, requires_grad=True)
                wt, bt = ndc.Parameter(w), ndc.Parameter(b)
                y = ndc.conv(xt, wt, bt, stride=stride, padding=padding)
                ndc.backward(ndc.sum_(y * ndc.Tensor(g)))
            np.testing.assert_allclose(y.data, want_y, rtol=0, atol=1e-12)
            for got, ref in zip((xt.grad, wt.grad, bt.grad), want):
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dims,k,stride,padding", CONV_CASES[1::3])
def test_conv_keeps_dtype_on_both_paths(each_conv_path, dtype, dims, k, stride, padding):
    rng = np.random.default_rng(811)
    sp = (k + 2, k + 1, k)[:dims]
    x = rng.normal(size=(2, 3) + sp)
    w = rng.normal(size=(2, 3) + (k,) * dims)
    b = rng.normal(size=2)
    want_y = conv_nd_loops(x, w, b, stride, padding)
    g = rng.normal(size=want_y.shape)
    want = conv_nd_vjp_loops(x, w, g, stride, padding)
    tol = 1e-4 if dtype == np.float32 else 1e-10
    for _ in each_conv_path(k, stride):
        with ndc.Tape():
            xt = ndc.Tensor(x, requires_grad=True, dtype=dtype)
            wt, bt = ndc.Parameter(w, dtype=dtype), ndc.Parameter(b, dtype=dtype)
            y = ndc.conv(xt, wt, bt, stride=stride, padding=padding)
            ndc.backward(ndc.sum_(y * ndc.Tensor(g, dtype=dtype)))
        assert y.dtype == dtype
        np.testing.assert_allclose(y.data, want_y, rtol=0, atol=tol)
        for got, ref in zip((xt.grad, wt.grad, bt.grad), want):
            assert got.dtype == dtype
            np.testing.assert_allclose(got, ref, rtol=0, atol=tol)


class _TapPath(Exception):
    pass


def _path_taken(monkeypatch, x_shape, w_shape, stride, padding) -> str:
    """The algorithm ``ndc.conv`` picks for zero operands of these shapes,
    with the tap path raising and the columns returning zeros."""
    def taps(*_):
        raise _TapPath

    def columns(x, w, b, stride, padding, keep):
        outs = tuple((e + 2 * padding - w.shape[2]) // stride + 1 for e in x.shape[2:])
        return np.zeros((x.shape[0], w.shape[0]) + outs, x.dtype), lambda g, need_x: (None, None)

    monkeypatch.setattr(ops, "_tap_conv", taps)
    monkeypatch.setattr(ops, "_column_conv", columns)
    x = ndc.Tensor(np.zeros(x_shape, np.float32))
    w = ndc.Parameter(np.zeros(w_shape, np.float32))
    try:
        ndc.conv(x, w, None, stride=stride, padding=padding)
    except _TapPath:
        return "taps"
    return "columns"


def test_strided_larger_kernels_take_the_columns(monkeypatch):
    # the paper MRI stem at ``evaluate``'s batch of 8: its rows x channels
    # reach the tap path's work, yet its 343 taps would each be a rank-1 GEMM
    assert _path_taken(monkeypatch, (8, 1, 128, 128, 64), (64, 1, 7, 7, 7), 2, 3) == "columns"
    monkeypatch.setattr(ops, "_TAP_MIN_WORK", (0, 0))
    assert _path_taken(monkeypatch, (2, 4, 9, 9), (3, 4, 3, 3), 2, 1) == "columns"
    assert _path_taken(monkeypatch, (2, 4, 9, 9), (3, 4, 1, 1), 2, 0) == "taps"
    assert _path_taken(monkeypatch, (2, 4, 9, 9), (3, 4, 3, 3), 1, 1) == "taps"


@pytest.mark.parametrize("dims,k,stride,padding", [
    (2, 3, 2, 1), (2, 2, 1, 0), (3, 3, 2, 1), (3, 2, 2, 0),
])
def test_maxpool_bitwise_across_blocks(monkeypatch, dims, k, stride, padding):
    rng = np.random.default_rng(809)
    sp = (7, 6, 5)[:dims]
    # a few integer levels, so most windows tie and the first maximum must win
    x = rng.integers(0, 3, size=(3, 2) + sp).astype(np.float64)
    want_y = np.ascontiguousarray(maxpool_nd_loops(x, k, stride, padding))
    g = rng.normal(size=want_y.shape)
    want_gx = np.ascontiguousarray(maxpool_nd_vjp_loops(x, g, k, stride, padding))
    for rows in BLOCK_ROWS:
        monkeypatch.setattr(ops, "_BLOCK_ROWS", rows)
        with ndc.Tape():
            xt = ndc.Tensor(x, requires_grad=True)
            y = ndc.maxpool(xt, k, stride, padding=padding)
            ndc.backward(ndc.sum_(y * ndc.Tensor(g)))
        assert y.data.tobytes() == want_y.tobytes()
        assert xt.grad.tobytes() == want_gx.tobytes()
    with ndc.no_grad():
        assert ndc.maxpool(ndc.Tensor(x), k, stride, padding=padding).data.tobytes() \
            == want_y.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dims,k,stride,padding", [(2, 3, 2, 1), (3, 2, 2, 0), (3, 3, 1, 1)])
def test_untaped_maxpool_keeps_the_first_maximum(dtype, dims, k, stride, padding):
    # ties of -0.0 and 0.0 are equal maxima with different bits
    x = np.random.default_rng(812).choice([-0.0, 0.0, -1.0], size=(2, 3) + (6, 5, 4)[:dims])
    want = maxpool_nd_loops(x, k, stride, padding).astype(dtype)
    y = ndc.maxpool(ndc.Tensor(x, dtype=dtype), k, stride, padding=padding)
    assert y.dtype == dtype and y.data.tobytes() == want.tobytes()


def _retained_bytes(requires_grad: bool) -> int:
    """Traced bytes still allocated after a taped 3x3x3 conv forward whose
    input requires a gradient; the weight's flag is ``requires_grad``."""
    rng = np.random.default_rng(810)
    x = ndc.Tensor(rng.normal(size=(1, 8, 16, 16, 8)).astype(np.float32),
                   requires_grad=True)
    w = ndc.Parameter(rng.normal(size=(4, 8, 3, 3, 3)).astype(np.float32))
    w.requires_grad = requires_grad
    with ndc.Tape() as tape:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y = ndc.conv(x, w, None, stride=1, padding=1)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tape) == 1 and y.requires_grad
    return retained


def test_tap_path_conv_retains_its_phases_not_columns(monkeypatch):
    monkeypatch.setattr(ops, "_TAP_MIN_WORK", (0, 0))
    padded_bytes = 8 * 18 * 18 * 10 * 4
    assert _retained_bytes(requires_grad=True) < 2 * padded_bytes


def _maxpool_peak(taped: bool) -> int:
    """Traced peak bytes of a 3x3x3 stride-2 maxpool at a 3-D stem-like shape,
    with a tape recording (``taped``) or under ``no_grad``."""
    x = ndc.Tensor(np.random.default_rng(813).normal(size=(1, 8, 32, 32, 16)),
                   requires_grad=True, dtype=np.float32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with ndc.Tape() if taped else ndc.no_grad():
            ndc.maxpool(x, 3, 2, padding=1)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_untaped_maxpool_builds_no_argmax():
    padded_bytes, out_bytes = 8 * 34 * 34 * 18 * 4, 8 * 16 * 16 * 8 * 4
    intp_bytes = 8 * 16 * 16 * 8 * np.dtype(np.intp).itemsize
    assert _maxpool_peak(taped=False) < padded_bytes + out_bytes + intp_bytes // 2
    # the backward reads the first-argmax indices, so a taped one builds them
    assert _maxpool_peak(taped=True) >= padded_bytes + out_bytes + intp_bytes


def test_frozen_weight_conv_retains_no_columns():
    out_bytes = 4 * 16 * 16 * 8 * 4
    col_bytes = 16 * 16 * 8 * 27 * 8 * 4
    frozen = _retained_bytes(requires_grad=False)
    assert frozen < 2 * out_bytes < col_bytes / 20
    # the weight gradient reads the columns, so a trainable weight keeps them
    assert _retained_bytes(requires_grad=True) >= col_bytes
