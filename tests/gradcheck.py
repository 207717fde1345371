"""Shared finite-difference gradient-check harness and the per-op case registry.

Used by both the per-op unit tests and the acceptance gate so the two suites
verify the identical operation surface.
"""
from __future__ import annotations

import numpy as np

from pasfusion import ndcore as ndc

from oracles import finite_difference_grads

H = 1e-5


def assert_grads_match(make_arrays, forward, seed, nudge=None,
                       rtol=1e-4, atol=1e-6):
    """Backward() vs central finite differences on float64 inputs."""
    rng = np.random.default_rng(seed)
    arrays = [np.ascontiguousarray(a, dtype=np.float64) for a in make_arrays(rng)]
    if nudge:
        arrays = nudge(arrays)
    proj_rng = np.random.default_rng(seed + 10_000)
    proj = {}

    def scalarize(out):
        if out.shape not in proj:
            proj[out.shape] = proj_rng.normal(size=out.shape)
        return ndc.sum_(out * ndc.Tensor(proj[out.shape], dtype=np.float64))

    def run_value():
        with ndc.no_grad():
            tensors = [ndc.Tensor(a) for a in arrays]
            return scalarize(forward(*tensors)).data.item()

    with ndc.Tape():
        tensors = [ndc.Tensor(a, requires_grad=True) for a in arrays]
        loss = scalarize(forward(*tensors))
        ndc.backward(loss)
        analytic = [t.grad for t in tensors]

    numeric = finite_difference_grads(run_value, arrays, h=H)
    for a, n in zip(analytic, numeric):
        assert a is not None
        np.testing.assert_allclose(a, n, rtol=rtol, atol=atol)


def _spread(arrays):
    arrays[0] *= 10.0
    return arrays


def _off_relu_kink(arrays):
    arrays[0] += np.sign(arrays[0]) * 0.05
    return arrays


def _to_probabilities(arrays):
    arrays[0][:] = 0.05 + 0.9 * (1.0 / (1.0 + np.exp(-arrays[0])))
    return arrays


def _case_elementwise():
    def fwd(a, b):
        four = ndc.Tensor(np.full((3, 4), 4.0), dtype=a.dtype)
        return (a + b) * a - b / (a * a + four)
    return (lambda r: [r.normal(size=(3, 4)), r.normal(size=(3, 4))], fwd, None)


def _case_broadcast_add():
    return (lambda r: [r.normal(size=(2, 5, 3)), r.normal(size=(5, 3))],
            lambda a, b: a + b, None)


def _case_matmul():
    return (lambda r: [r.normal(size=(2, 3, 4)), r.normal(size=(4, 5))],
            ndc.matmul, None)


def _case_reshape_transpose():
    return (lambda r: [r.normal(size=(2, 3, 4))],
            lambda a: ndc.transpose(ndc.reshape(a, (2, 12)), (1, 0)), None)


def _case_concat_split():
    # concat's backward splits the gradient at the part boundaries: a nested,
    # reordered concat that repeats an input checks each piece's destination
    def fwd(a, b):
        joined = ndc.concat([a, b], axis=1)
        return ndc.concat([b, joined, a], axis=1)
    return (lambda r: [r.normal(size=(2, 3)), r.normal(size=(2, 2))], fwd, None)


def _case_reductions():
    def fwd(a):
        flat = ndc.mean(a, axis=2)
        return flat + ndc.sum_(flat, axis=(0,), keepdims=True)
    return (lambda r: [r.normal(size=(3, 4, 2))], fwd, None)


def _conv_case(dims, stride, padding, k, sp, channels=(2, 2, 3)):
    batch, in_ch, out_ch = channels

    def make(r):
        return [r.normal(size=(batch, in_ch) + sp),
                r.normal(size=(out_ch, in_ch) + (k,) * dims) * 0.5,
                r.normal(size=out_ch)]

    return (make,
            lambda x, w, b: ndc.conv(x, w, b, stride=stride, padding=padding),
            None)


def _maxpool_case(dims):
    sp = (6, 5) if dims == 2 else (6, 5, 4)
    return (lambda r: [r.normal(size=(2, 2) + sp)],
            lambda x: ndc.maxpool(x, 3, 2, padding=1), _spread)


def _avgpool_case(dims):
    sp = (6, 4) if dims == 2 else (6, 4, 2)
    return (lambda r: [r.normal(size=(2, 2) + sp)],
            lambda x: ndc.avgpool(x, 2, 2), None)


def _case_avgpool_degenerate():
    return (lambda r: [r.normal(size=(1, 2, 2, 2, 1))],
            lambda x: ndc.avgpool(x, 2, 2), None)


def _case_global_avgpool():
    return (lambda r: [r.normal(size=(2, 3, 4, 2))], ndc.global_avgpool, None)


def _batchnorm_case(mode):
    def fwd(x, scale, shift):
        rm = np.zeros(3, dtype=x.dtype)
        rv = np.ones(3, dtype=x.dtype)
        return ndc.batchnorm(x, scale, shift, rm, rv, mode=mode)
    return (lambda r: [r.normal(size=(4, 3, 2)), r.normal(size=3) + 2.0,
                       r.normal(size=3)], fwd, None)


def _case_layernorm():
    return (lambda r: [r.normal(size=(3, 4, 6)), r.normal(size=6) + 2.0,
                       r.normal(size=6)],
            lambda x, s, b: ndc.layernorm(x, s, b), None)


def _activation_case(op):
    return (lambda r: [r.normal(size=(3, 5))], op,
            _off_relu_kink if op is ndc.relu else None)


def _case_linear():
    return (lambda r: [r.normal(size=(4, 5)), r.normal(size=(3, 5)),
                       r.normal(size=3)],
            lambda x, w, b: ndc.linear(x, w, b), None)


def _case_mhsa():
    d, heads = 8, 2
    return (lambda r: [r.normal(size=(2, 4, d)) * 0.5] +
                      [r.normal(size=(d, d)) * 0.3 for _ in range(4)],
            lambda toks, wq, wk, wv, wo: ndc.mhsa(toks, heads, wq, wk, wv, wo),
            None)


def _case_dropout():
    return (lambda r: [r.normal(size=(4, 6))],
            lambda x: ndc.dropout(x, 0.4, "train", np.random.default_rng(777)),
            None)


def _case_cross_entropy():
    targets = np.array([0, 1, 1, 0, 1])
    weights = np.array([0.7, 1.6])
    return (lambda r: [r.normal(size=(5, 2))],
            lambda logits: ndc.cross_entropy(logits, targets,
                                             class_weights=weights,
                                             label_smoothing=0.1),
            None)


def _case_bce():
    targets = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0])
    return (lambda r: [r.normal(size=6)],
            lambda p: ndc.bce_loss(p, targets), _to_probabilities)


GRAD_CASES = {
    "elementwise": _case_elementwise(),
    "broadcast_add": _case_broadcast_add(),
    "matmul": _case_matmul(),
    "reshape_transpose": _case_reshape_transpose(),
    "concat_split": _case_concat_split(),
    "reductions": _case_reductions(),
    "conv2d_s1": _conv_case(2, 1, 0, 3, (5, 4)),
    "conv2d_s2p1": _conv_case(2, 2, 1, 3, (5, 4)),
    "conv3d_s1p1": _conv_case(3, 1, 1, 3, (5, 4, 4)),
    "conv3d_k7s2p3": _conv_case(3, 2, 3, 7, (7, 7, 7), (1, 1, 1)),
    # the remaining conv shapes the models use: dense bottleneck, ResNet
    # projection shortcut, a strided 3x3x3 whose windows miss the last input
    # plane on two axes (n - k odd), and the ViT patch embedding
    "conv3d_k1s1": _conv_case(3, 1, 0, 1, (3, 4, 2), (2, 3, 2)),
    "conv2d_k1s2": _conv_case(2, 2, 0, 1, (5, 4)),
    "conv3d_s2_odd": _conv_case(3, 2, 0, 3, (4, 5, 6), (1, 2, 2)),
    "conv3d_k8s8": _conv_case(3, 8, 0, 8, (8, 8, 9), (1, 1, 2)),
    "maxpool2d": _maxpool_case(2),
    "maxpool3d": _maxpool_case(3),
    "avgpool2d": _avgpool_case(2),
    "avgpool3d": _avgpool_case(3),
    "avgpool_degenerate": _case_avgpool_degenerate(),
    "global_avgpool": _case_global_avgpool(),
    "batchnorm_train": _batchnorm_case("train"),
    "batchnorm_eval": _batchnorm_case("eval"),
    "layernorm": _case_layernorm(),
    "relu": _activation_case(ndc.relu),
    "gelu": _activation_case(ndc.gelu),
    "sigmoid": _activation_case(ndc.sigmoid),
    "softmax": _activation_case(ndc.softmax),
    "linear": _case_linear(),
    "mhsa": _case_mhsa(),
    "dropout": _case_dropout(),
    "cross_entropy": _case_cross_entropy(),
    "bce": _case_bce(),
}
