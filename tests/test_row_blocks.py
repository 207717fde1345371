"""Row-blocked conv and maxpool kernels across many blocks.

``ops._BLOCK_ROWS`` is shrunk so that one call runs through many blocks:
partial last blocks, blocks that hold part of the batch, and blocks that cut
an output axis in the middle.  Every result is checked against the loop
oracles at the tolerances of the unblocked tests.
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


@pytest.mark.parametrize("dims,k,stride,padding", [
    (2, 1, 1, 0), (2, 1, 2, 0), (2, 3, 1, 1), (2, 3, 2, 1), (2, 7, 1, 3), (2, 7, 2, 2),
    (3, 1, 1, 0), (3, 1, 2, 0), (3, 3, 1, 1), (3, 3, 2, 1), (3, 7, 1, 0), (3, 7, 2, 1),
])
def test_conv_matches_oracles_across_blocks(monkeypatch, dims, k, stride, padding):
    rng = np.random.default_rng(808)
    sp = (k + 1, k + 2, k)[:dims]
    x = rng.normal(size=(3, 2) + sp)
    w = rng.normal(size=(3, 2) + (k,) * dims)
    b = rng.normal(size=3)
    want_y = conv_nd_loops(x, w, b, stride, padding)
    g = rng.normal(size=want_y.shape)
    want = conv_nd_vjp_loops(x, w, g, stride, padding)
    for rows in BLOCK_ROWS:
        monkeypatch.setattr(ops, "_BLOCK_ROWS", rows)
        with ndc.Tape():
            xt = ndc.Tensor(x, requires_grad=True)
            wt, bt = ndc.Parameter(w), ndc.Parameter(b)
            y = ndc.conv(xt, wt, bt, stride=stride, padding=padding)
            ndc.backward(ndc.sum_(y * ndc.Tensor(g)))
        np.testing.assert_allclose(y.data, want_y, rtol=0, atol=1e-12)
        for got, ref in zip((xt.grad, wt.grad, bt.grad), want):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10)


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


def test_frozen_weight_conv_retains_no_columns():
    out_bytes = 4 * 16 * 16 * 8 * 4
    col_bytes = 16 * 16 * 8 * 27 * 8 * 4
    frozen = _retained_bytes(requires_grad=False)
    assert frozen < 2 * out_bytes < col_bytes / 20
    # the weight gradient reads the columns, so a trainable weight keeps them
    assert _retained_bytes(requires_grad=True) >= col_bytes
