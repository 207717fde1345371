"""Independent reference implementations used to check the fast paths.

Everything here is deliberately written as plain loops / direct formulas and
never imports the package's kernels, so a bug cannot hide on both sides.
"""
from __future__ import annotations

import numpy as np


def conv_nd_loops(x, w, b, stride, padding):
    """Direct nested-loop cross-correlation; x is (B, C, *sp), w is (F, C, *K)."""
    dims = x.ndim - 2
    batch, in_ch = x.shape[:2]
    out_ch = w.shape[0]
    k = w.shape[2]
    pad = ((0, 0), (0, 0)) + ((padding, padding),) * dims
    xp = np.pad(x, pad)
    outs = tuple((x.shape[2 + i] + 2 * padding - k) // stride + 1 for i in range(dims))
    y = np.zeros((batch, out_ch) + outs, dtype=np.float64)
    for n in range(batch):
        for f in range(out_ch):
            for opos in np.ndindex(*outs):
                acc = 0.0
                for c in range(in_ch):
                    for kpos in np.ndindex(*(k,) * dims):
                        ipos = tuple(opos[d] * stride + kpos[d] for d in range(dims))
                        acc += xp[(n, c) + ipos] * w[(f, c) + kpos]
                y[(n, f) + opos] = acc + (b[f] if b is not None else 0.0)
    return y


def conv_nd_vjp_loops(x, w, g, stride, padding):
    """Gradients (gx, gw, gb) of conv_nd_loops for output gradient g, by
    routing each output position's gradient back through its window."""
    dims = x.ndim - 2
    batch, in_ch = x.shape[:2]
    out_ch = w.shape[0]
    k = w.shape[2]
    pad = ((0, 0), (0, 0)) + ((padding, padding),) * dims
    xp = np.pad(x, pad)
    gxp = np.zeros(xp.shape, dtype=np.float64)
    gw = np.zeros(w.shape, dtype=np.float64)
    gb = np.zeros(out_ch, dtype=np.float64)
    for n in range(batch):
        for f in range(out_ch):
            for opos in np.ndindex(*g.shape[2:]):
                go = g[(n, f) + opos]
                gb[f] += go
                for c in range(in_ch):
                    for kpos in np.ndindex(*(k,) * dims):
                        ipos = tuple(opos[d] * stride + kpos[d] for d in range(dims))
                        gxp[(n, c) + ipos] += go * w[(f, c) + kpos]
                        gw[(f, c) + kpos] += go * xp[(n, c) + ipos]
    crop = tuple(slice(padding, padding + e) for e in x.shape[2:])
    return gxp[(slice(None), slice(None)) + crop], gw, gb


def maxpool_nd_loops(x, k, stride, padding):
    dims = x.ndim - 2
    batch, ch = x.shape[:2]
    pad = ((0, 0), (0, 0)) + ((padding, padding),) * dims
    xp = np.pad(x.astype(np.float64), pad, constant_values=-np.inf)
    outs = tuple((x.shape[2 + i] + 2 * padding - k) // stride + 1 for i in range(dims))
    y = np.zeros((batch, ch) + outs, dtype=np.float64)
    for n in range(batch):
        for c in range(ch):
            for opos in np.ndindex(*outs):
                best = -np.inf
                for kpos in np.ndindex(*(k,) * dims):
                    ipos = tuple(opos[d] * stride + kpos[d] for d in range(dims))
                    best = max(best, xp[(n, c) + ipos])
                y[(n, c) + opos] = best
    return y


def maxpool_nd_vjp_loops(x, g, k, stride, padding):
    """Input gradient of maxpool_nd_loops for output gradient g: each window
    routes its gradient to its first maximum in row-major window order."""
    dims = x.ndim - 2
    batch, ch = x.shape[:2]
    pad = ((0, 0), (0, 0)) + ((padding, padding),) * dims
    xp = np.pad(x.astype(np.float64), pad, constant_values=-np.inf)
    gxp = np.zeros(xp.shape, dtype=np.float64)
    for n in range(batch):
        for c in range(ch):
            for opos in np.ndindex(*g.shape[2:]):
                best, where = -np.inf, None
                for kpos in np.ndindex(*(k,) * dims):
                    ipos = tuple(opos[d] * stride + kpos[d] for d in range(dims))
                    if where is None or xp[(n, c) + ipos] > best:
                        best, where = xp[(n, c) + ipos], ipos
                gxp[(n, c) + where] += g[(n, c) + opos]
    crop = tuple(slice(padding, padding + e) for e in x.shape[2:])
    return gxp[(slice(None), slice(None)) + crop]


def avgpool_nd_loops(x, k, stride):
    """Windowed mean with the same degenerate-axis clamp as the kernel."""
    dims = x.ndim - 2
    batch, ch = x.shape[:2]
    ks = tuple(min(k, x.shape[2 + i]) for i in range(dims))
    outs = tuple((x.shape[2 + i] - ks[i]) // stride + 1 for i in range(dims))
    y = np.zeros((batch, ch) + outs, dtype=np.float64)
    div = float(np.prod(ks))
    for n in range(batch):
        for c in range(ch):
            for opos in np.ndindex(*outs):
                acc = 0.0
                for kpos in np.ndindex(*ks):
                    ipos = tuple(opos[d] * stride + kpos[d] for d in range(dims))
                    acc += x[(n, c) + ipos]
                y[(n, c) + opos] = acc / div
    return y


def finite_difference_grads(fn, arrays, h=1e-5):
    """Central finite differences of scalar-valued fn w.r.t. each input array."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr, dtype=np.float64)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = fn()
            flat[i] = keep - h
            down = fn()
            flat[i] = keep
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def auc_pairwise(labels, scores):
    """Mann-Whitney pairwise counting with ties scored one half."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def adam_single_step(w, g, m, v, t, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
    """Closed-form single-parameter Adam update."""
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g * g
    mhat = m / (1.0 - beta1 ** t)
    vhat = v / (1.0 - beta2 ** t)
    w = w - lr * mhat / (np.sqrt(vhat) + eps)
    return w, m, v


def bh_stepup(pvals):
    """Benjamini-Hochberg adjusted p-values, straight from the definition."""
    p = np.asarray(pvals, dtype=np.float64)
    m = len(p)
    order = np.argsort(p, kind="stable")
    adj = np.empty(m)
    running = 1.0
    for rank_from_top in range(m - 1, -1, -1):
        idx = order[rank_from_top]
        running = min(running, p[idx] * m / (rank_from_top + 1))
        adj[idx] = running
    return adj


def _catmull_rom(t):
    t = abs(t)
    if t <= 1.0:
        return 1.5 * t ** 3 - 2.5 * t ** 2 + 1.0
    if t < 2.0:
        return -0.5 * t ** 3 + 2.5 * t ** 2 - 4.0 * t + 2.0
    return 0.0


def resample_axis_loops(arr, x, axis, kernel):
    """Sample ``axis`` of ``arr`` at each position ``x[i]`` as a loop over its
    taps: ``kernel`` "cubic" is Catmull-Rom at offsets -1..2 from
    ``floor(x[i])``, "linear" is the hat at offsets 0..1; tap indices are
    clamped to the axis."""
    offsets, weight = {"cubic": ((-1, 0, 1, 2), _catmull_rom),
                       "linear": ((0, 1), lambda t: max(0.0, 1.0 - abs(t)))}[kernel]
    moved = np.moveaxis(np.asarray(arr, dtype=np.float64), axis, 0)
    n = moved.shape[0]
    out = np.zeros((len(x),) + moved.shape[1:])
    for i, xi in enumerate(x):
        base = int(np.floor(xi))
        for o in offsets:
            out[i] += weight(xi - base - o) * moved[min(max(base + o, 0), n - 1)]
    return np.moveaxis(out, 0, axis)


def rotate_bilinear_loops(img, degrees):
    """Rotate (C, H, W) about the image centre, one output pixel at a time:
    bilinear over the four neighbours of the source point, a neighbour
    outside the image contributing zero."""
    c, h, w = img.shape
    theta = np.radians(degrees)
    cos, sin = np.cos(theta), np.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    out = np.zeros((c, h, w))
    for y in range(h):
        for x in range(w):
            sy = cos * (y - cy) + sin * (x - cx) + cy
            sx = -sin * (y - cy) + cos * (x - cx) + cx
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            for ny, wy in ((y0, 1.0 - (sy - y0)), (y0 + 1, sy - y0)):
                for nx, wx in ((x0, 1.0 - (sx - x0)), (x0 + 1, sx - x0)):
                    if 0 <= ny < h and 0 <= nx < w:
                        out[:, y, x] += wy * wx * img[:, ny, nx]
    return out
