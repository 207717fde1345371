"""Modality-specific preprocessing.

Volumes: axis reorder -> uniform-scale Catmull-Rom resample -> zero
center-padding to the profile grid -> per-volume min-max to [0, 1].
Images: min-max -> 8-bit quantization (round half up) -> channel
replication -> bilinear resize -> division by 255 at the model boundary.
"""
from __future__ import annotations

import math

import numpy as np

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


# float64 values of gathered taps per block of output positions (8 MB)
_BLOCK_VALUES = 1 << 20


def _resample_axis(arr: np.ndarray, x: np.ndarray, axis: int, kernel) -> np.ndarray:
    """Sample ``axis`` at the positions ``x`` with the ``kernel`` taps
    (edge-clamped); the positions ``0..n-1`` of an ``n``-long axis return
    ``arr`` itself.

    The taps are gathered and summed one block of positions at a time, so a
    paper-scale volume never holds all of them at once; each output value is
    the same einsum sum as over the whole axis."""
    n_in = arr.shape[axis]
    if len(x) == n_in and np.array_equal(x, np.arange(n_in)):
        return arr
    base = np.floor(x).astype(np.int64)
    first, weights = kernel(x - base)
    w = np.stack(weights)
    idx = np.clip(base + np.arange(first, first + len(w))[:, None], 0, n_in - 1)
    moved = np.ascontiguousarray(np.moveaxis(arr, axis, 0), dtype=np.float64)
    out = np.empty((len(x),) + moved.shape[1:])
    step = max(1, _BLOCK_VALUES // (len(w) * max(1, math.prod(moved.shape[1:]))))
    for lo in range(0, len(x), step):
        block = slice(lo, lo + step)
        np.einsum("kn,kn...->n...", w[:, block], moved[idx[:, block]], out=out[block])
    return np.moveaxis(out, 0, axis)


def _centred_positions(n_in: int, n_out: int) -> np.ndarray:
    """Positions of ``n_out`` half-pixel-centred samples over an ``n_in``-long axis."""
    return (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5


def resample(arr: np.ndarray, extents, kernel) -> np.ndarray:
    """Resample the leading ``len(extents)`` axes to ``extents``, one axis at a time."""
    for ax, n in enumerate(extents):
        arr = _resample_axis(arr, _centred_positions(arr.shape[ax], n), ax, kernel)
    return arr


def resample_volume_cubic(vox: np.ndarray, extents) -> np.ndarray:
    return resample(vox, extents, cubic_taps)


def minmax_unit(arr: np.ndarray) -> np.ndarray:
    """Min-max to [0, 1]; a constant array maps to all zeros.

    A NaN or infinite value would turn every output value NaN, so it is
    rejected (NaN propagates through ``min``/``max``; no extra pass).
    """
    lo = float(arr.min())
    hi = float(arr.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise PreprocessError(f"non-finite values in the input (min {lo}, max {hi})")
    if hi == lo:
        return np.zeros_like(arr, dtype=np.float32)
    return ((arr - lo) / (hi - lo)).astype(np.float32)


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
    vox = resample_volume_cubic(vox.astype(np.float64), scaled)

    out = np.zeros(target, dtype=np.float64)
    starts = tuple((t - s) // 2 for t, s in zip(target, scaled))
    region = tuple(slice(st, st + s) for st, s in zip(starts, scaled))
    out[region] = vox
    return Volume(voxels=minmax_unit(out), axis_order="HWD")


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
