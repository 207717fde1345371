"""Finite-difference verification of every differentiable primitive.

The op case registry lives in ``gradcheck.py`` and is shared with the
acceptance gate; each case builds float64 tensors over the arrays the
central-difference oracle perturbs (h = 1e-5) and compares backward()
against the numeric gradients at rtol 1e-4.
"""
import tracemalloc

import numpy as np
import pytest

from pasfusion import ndcore as ndc
from pasfusion.models import MICRO, build_model

from gradcheck import GRAD_CASES, assert_grads_match

SEEDS = range(20)


@pytest.mark.parametrize("name", sorted(GRAD_CASES))
@pytest.mark.parametrize("seed", SEEDS)
def test_gradients_match_finite_differences(name, seed):
    make_arrays, forward, nudge = GRAD_CASES[name]
    assert_grads_match(make_arrays, forward, seed, nudge=nudge)


@pytest.mark.parametrize("name", sorted(GRAD_CASES))
def test_float32_gradients_keep_tensor_dtype(name):
    make_arrays, forward, nudge = GRAD_CASES[name]
    arrays = [np.asarray(a, dtype=np.float64)
              for a in make_arrays(np.random.default_rng(0))]
    if nudge:
        arrays = nudge(arrays)
    with ndc.Tape():
        tensors = [ndc.Tensor(a, requires_grad=True, dtype=np.float32)
                   for a in arrays]
        ndc.backward(ndc.sum_(forward(*tensors)))
    for i, t in enumerate(tensors):
        assert t.grad.dtype == t.dtype, (name, i, t.grad.dtype)


def test_backward_populates_unreached_with_zero():
    with ndc.Tape():
        a = ndc.Tensor([1.0, 2.0], requires_grad=True, dtype=np.float64)
        b = ndc.Tensor([3.0, 4.0], requires_grad=True, dtype=np.float64)
        used = ndc.sum_(a * 2.0)
        _unused = b * 3.0  # on tape, but not feeding the loss
        ndc.backward(used)
    np.testing.assert_array_equal(a.grad, [2.0, 2.0])
    np.testing.assert_array_equal(b.grad, [0.0, 0.0])


def test_backward_rejects_nonscalar():
    with ndc.Tape():
        a = ndc.Tensor([1.0, 2.0], requires_grad=True)
        out = a * 2.0
        with pytest.raises(ndc.GradError):
            ndc.backward(out)
        ndc.backward(ndc.sum_(out))


def test_backward_requires_recording():
    a = ndc.Tensor([1.0], requires_grad=True)
    with ndc.no_grad():
        out = ndc.sum_(a * 2.0)
        with pytest.raises(ndc.GradError):
            ndc.backward(out)


def test_nothing_records_outside_a_tape():
    """Outside ``with Tape()`` a forward records no node and keeps no
    backward state, as under ``no_grad``."""
    model = build_model("mri", MICRO, seed=0).eval()
    x = ndc.Tensor(np.random.default_rng(0).random((2, 1) + MICRO.mri_input,
                                                   dtype=np.float32))
    assert ndc.active_tape() is None
    out = model(x)
    assert ndc.active_tape() is None
    assert not out.logits.requires_grad and not out.probability.requires_grad

    rng = np.random.default_rng(810)
    x = ndc.Tensor(rng.normal(size=(1, 8, 16, 16, 8)).astype(np.float32),
                   requires_grad=True)
    w = ndc.Parameter(rng.normal(size=(4, 8, 3, 3, 3)).astype(np.float32))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = ndc.conv(x, w, None, stride=1, padding=1)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert not y.requires_grad
    assert retained < 2 * y.data.nbytes      # the output, but no columns


def test_relu_gradient_signs():
    with ndc.Tape():
        x = ndc.Tensor([-1.5, 2.0], requires_grad=True, dtype=np.float64)
        ndc.backward(ndc.sum_(ndc.relu(x)))
    np.testing.assert_array_equal(x.grad, [0.0, 1.0])


def test_sum_gradient_is_ones():
    with ndc.Tape():
        x = ndc.Tensor(np.arange(6, dtype=np.float64), requires_grad=True)
        ndc.backward(ndc.sum_(x))
    np.testing.assert_array_equal(x.grad, np.ones(6))


def test_grad_accumulates_across_reuse():
    with ndc.Tape():
        x = ndc.Tensor([2.0], requires_grad=True, dtype=np.float64)
        y = x * 3.0 + x * x        # d/dx = 3 + 2x = 7
        ndc.backward(ndc.sum_(y))
    np.testing.assert_allclose(x.grad, [7.0])


def test_determinism_same_seed_bitwise():
    def run():
        rng = np.random.default_rng(42)
        with ndc.Tape():
            x = ndc.Tensor(rng.normal(size=(4, 8)), requires_grad=True,
                           dtype=np.float64)
            w = ndc.Parameter(rng.normal(size=(8, 8)), dtype=np.float64)
            out = ndc.softmax(ndc.matmul(ndc.gelu(x), w))
            loss = ndc.sum_(out * out)
            ndc.backward(loss)
        return loss.data.copy(), x.grad.copy(), w.grad.copy()

    l1, gx1, gw1 = run()
    l2, gx2, gw2 = run()
    assert l1.tobytes() == l2.tobytes()
    assert gx1.tobytes() == gx2.tobytes()
    assert gw1.tobytes() == gw2.tobytes()
