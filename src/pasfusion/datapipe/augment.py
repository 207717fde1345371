"""Training-time geometric augmentation.

Volumes: independent H/W flips, right-angle rotation in the H-W plane and a
uniform zoom in [1.1, 1.3] with a center crop back to the input grid.
Images: horizontal flip and a continuous rotation in [-10, +10] degrees with
bilinear resampling and zero fill.  All draws come from the caller's RNG in a
fixed order, so a given (stream, input) pair is reproducible.
"""
from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np

from .niftiio import Volume
from .preprocess import _centred_positions, _resample_axis, _tap_matrix, cubic_taps

ZOOM_RANGE = (1.1, 1.3)
ROTATION_DEGREES = 10.0


def sample_rng(global_seed: int, patient_id: str, epoch: int,
               occurrence: int = 0) -> np.random.Generator:
    """Per-sample stream derived by hashing, stable across platforms and
    independent of iteration order."""
    key = f"{global_seed}|{patient_id}|{epoch}|{occurrence}".encode()
    digest = hashlib.sha256(key).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def zoom_center_crop(vox: np.ndarray, factor: float) -> np.ndarray:
    """Zoom by ``factor`` (>= 1) and keep the centre ``vox.shape`` window;
    only the kept voxels are resampled, one axis at a time."""
    out = np.array(vox, dtype=np.float64, order="C")
    for axis, e in enumerate(vox.shape):
        scaled = max(1, int(round(e * factor)))
        x = _centred_positions(e, scaled)[(scaled - e) // 2:][:e]
        out = _resample_axis(out, x, axis, cubic_taps)
    return out


def augment_mri(volume: Volume, rng: np.random.Generator) -> Volume:
    vox = volume.voxels
    if rng.random() < 0.5:
        vox = vox[::-1, :, :]
    if rng.random() < 0.5:
        vox = vox[:, ::-1, :]
    quarter_turns = int(rng.integers(0, 4))
    if quarter_turns and vox.shape[0] == vox.shape[1]:
        vox = np.rot90(vox, k=quarter_turns, axes=(0, 1))
    factor = float(rng.uniform(*ZOOM_RANGE))
    vox = zoom_center_crop(vox, factor)
    return Volume(voxels=np.ascontiguousarray(vox, dtype=np.float32),
                  axis_order=volume.axis_order)


def rotate_bilinear(img: np.ndarray, degrees: float) -> np.ndarray:
    """Rotate (C, H, W) about the image center; zero outside the support.

    One sparse product per channel: each output pixel is a row of its four
    bilinear taps, (0, 0), (0, 1), (1, 0) and (1, 1), over the flattened H*W
    grid; a tap outside the image keeps its entry with a zero weight."""
    c, h, w = img.shape
    theta = math.radians(degrees)
    cos, sin = math.cos(theta), math.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    dy, dx = np.arange(h)[:, None] - cy, np.arange(w) - cx
    axes = []
    for src, n in ((cos * dy + sin * dx + cy, h), (-sin * dy + cos * dx + cx, w)):
        base = np.floor(src).astype(np.int64)
        t = src - base
        # offsets 0 and 1 on this axis: the clamped index and the weight, zeroed outside
        axes.append([(np.clip(base + o, 0, n - 1), wt * ((base + o >= 0) & (base + o < n)))
                     for o, wt in ((0, 1 - t), (1, t))])
    cols, weights = np.empty((h, w, 4), np.int64), np.empty((h, w, 4))
    for k, ((iy, wy), (ix, wx)) in enumerate(itertools.product(*axes)):
        np.add(iy * w, ix, out=cols[..., k])
        np.multiply(wy, wx, out=weights[..., k])
    taps = _tap_matrix(cols.reshape(h * w, 4), weights.reshape(h * w, 4), h * w)
    return np.stack([taps @ channel for channel in img.reshape(c, h * w)]).reshape(c, h, w)


def augment_us(img: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """(C, H, W) float image -> same-shape augmented image."""
    if rng.random() < 0.5:
        img = img[:, :, ::-1]
    degrees = float(rng.uniform(-ROTATION_DEGREES, ROTATION_DEGREES))
    out = rotate_bilinear(np.ascontiguousarray(img), degrees)
    return np.ascontiguousarray(out, dtype=np.float32)
