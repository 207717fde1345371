"""Modality-specific preprocessing.

Volumes: axis reorder -> uniform-scale Catmull-Rom resample -> zero
center-padding to the profile grid -> per-volume min-max to [0, 1].
Images: min-max -> 8-bit quantization (round half up) -> channel
replication -> bilinear resize -> division by 255 at the model boundary.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import sparse

from .niftiio import Volume


class PreprocessError(ValueError):
    pass


def catmull_rom(t: np.ndarray) -> np.ndarray:
    """Cubic convolution kernel with a = -0.5 (Catmull-Rom)."""
    t = np.abs(t)
    a = -0.5
    near = (a + 2.0) * t ** 3 - (a + 3.0) * t ** 2 + 1.0
    far = a * (t ** 3 - 5.0 * t ** 2 + 8.0 * t - 4.0)
    return np.where(t <= 1.0, near, np.where(t < 2.0, far, 0.0))


def cubic_taps(t: np.ndarray):
    """Catmull-Rom taps at offsets -1..2 from ``floor(x)``, for ``t = x - floor(x)``."""
    return -1, (catmull_rom(1.0 + t), catmull_rom(t), catmull_rom(1.0 - t), catmull_rom(2.0 - t))


def linear_taps(t: np.ndarray):
    """Linear taps at offsets 0..1 from ``floor(x)``."""
    return 0, (1.0 - t, t)


def _tap_matrix(cols: np.ndarray, weights: np.ndarray, n_in: int) -> sparse.csr_array:
    """``(n_out, n_in)`` CSR matrix with ``weights[i]`` at columns ``cols[i]`` in
    row ``i``, left in tap order: no sorting and no merging of the columns that
    clamped edges repeat, so a product with it sums each row in tap order."""
    n_out, k = cols.shape
    return sparse.csr_array((weights.ravel(), cols.ravel(), np.arange(0, k * n_out + 1, k)),
                            shape=(n_out, n_in))


def _resample_axis(arr: np.ndarray, x: np.ndarray, axis: int, kernel) -> np.ndarray:
    """Sample ``axis`` at the positions ``x`` with the ``kernel`` taps
    (edge-clamped) as one sparse tap-matrix product, so no tap is copied; the
    positions ``0..n-1`` of an ``n``-long axis return ``arr`` itself.  The axis
    is contracted where it lies, by ``lead`` block-diagonal copies of the tap rows
    over the ``(lead * n_in, trail)`` float64 view; the last axis, whose ``trail``
    is 1, is transposed to the front and back instead."""
    n_in = arr.shape[axis]
    if len(x) == n_in and np.array_equal(x, np.arange(n_in)):
        return arr
    base = np.floor(x).astype(np.int64)
    first, weights = kernel(x - base)
    w = np.stack(weights, axis=1)
    idx = np.clip(base[:, None] + np.arange(first, first + w.shape[1]), 0, n_in - 1)
    if axis == arr.ndim - 1:
        out = _tap_matrix(idx, w, n_in) @ _transposed(arr.reshape(-1, n_in))
        return _transposed(out).reshape(arr.shape[:-1] + (len(x),))
    lead, trail = math.prod(arr.shape[:axis]), math.prod(arr.shape[axis + 1:])
    cols = idx + n_in * np.arange(lead)[:, None, None]
    taps = _tap_matrix(cols.reshape(-1, w.shape[1]), np.broadcast_to(w, cols.shape), lead * n_in)
    out = taps @ np.ascontiguousarray(arr, dtype=np.float64).reshape(lead * n_in, trail)
    return out.reshape(arr.shape[:axis] + (len(x),) + arr.shape[axis + 1:])


def _transposed(a: np.ndarray) -> np.ndarray:
    """C-contiguous float64 ``a.T``, copied in bands of rows (2-4x numpy's speed)."""
    out, rows = np.empty(a.shape[::-1]), max(16, 4096 // max(a.shape[1], 1))
    for i in range(0, len(a), rows):
        out[:, i:i + rows] = a[i:i + rows].T
    return out


def _centred_positions(n_in: int, n_out: int) -> np.ndarray:
    """Positions of ``n_out`` half-pixel-centred samples over an ``n_in``-long axis."""
    return (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5


def resample(arr: np.ndarray, extents, kernel) -> np.ndarray:
    """Resample the leading ``len(extents)`` axes to ``extents``, one axis at a time."""
    for ax, n in enumerate(extents):
        arr = _resample_axis(arr, _centred_positions(arr.shape[ax], n), ax, kernel)
    return arr


def _unit_span(arr: np.ndarray, pad: bool = False) -> tuple[float, float]:
    """-> ``(lo, hi - lo)`` over ``arr`` (and a zero padding if ``pad``); rejects NaN and inf."""
    values = (float(arr.min()), float(arr.max())) + ((0.0,) if pad else ())
    # a zero minimum as +0.0, whichever signed zero the reduction met first
    lo, hi = min(values) + 0.0, max(values)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise PreprocessError(f"non-finite values in the input (min {lo}, max {hi})")
    return lo, hi - lo


def minmax_unit(arr: np.ndarray) -> np.ndarray:
    """Min-max to [0, 1]; a constant array maps to all zeros."""
    lo, span = _unit_span(arr)
    return ((arr - lo) / span).astype(np.float32) if span else np.zeros_like(arr, np.float32)


def reorder_axes(volume: Volume) -> np.ndarray:
    order = volume.axis_order.upper()
    if sorted(order) != ["D", "H", "W"]:
        raise PreprocessError(f"bad axis order tag {volume.axis_order!r}")
    perm = [order.index(ax) for ax in "HWD"]
    return np.transpose(volume.voxels, perm)


def preprocess_mri(volume: Volume, target=(128, 128, 64)) -> Volume:
    vox = reorder_axes(volume)
    if vox.size == 0 or min(vox.shape) < 1:
        raise PreprocessError(f"empty volume {vox.shape}")
    scale = min(t / e for t, e in zip(target, vox.shape))
    scaled = tuple(max(1, int(round(e * scale))) for e in vox.shape)
    vox = resample(np.array(vox, dtype=np.float64, order="C"), scaled, cubic_taps)
    lo, span = _unit_span(vox, pad=scaled != tuple(target))
    out = np.full(target, (0.0 - lo) / span if span else 0.0, dtype=np.float32)
    if span:
        region = tuple(slice((t - s) // 2, (t - s) // 2 + s) for t, s in zip(target, scaled))
        np.divide(np.subtract(vox, lo, out=vox), span, out=out[region])
    return Volume(voxels=out, axis_order="HWD")


def preprocess_us(pixels: np.ndarray, target=(224, 224)) -> np.ndarray:
    """Grayscale (H, W) -> float32 (3, H', W') in [0, 1]."""
    if pixels.ndim != 2:
        raise PreprocessError(f"expected single-channel image, got shape {pixels.shape}")
    if pixels.size == 0:
        raise PreprocessError("empty image")
    u8 = quantize_u8(pixels)
    resized = resample(u8, target, linear_taps)
    one = (resized / 255.0).astype(np.float32)
    return np.repeat(one[None, :, :], 3, axis=0)


def quantize_u8(pixels: np.ndarray) -> np.ndarray:
    """Min-max to [0,1] then round-half-up to the 0..255 range."""
    unit = minmax_unit(pixels.astype(np.float64))
    return np.clip(np.floor(unit * 255.0 + 0.5), 0, 255).astype(np.uint8)
