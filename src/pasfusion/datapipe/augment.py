"""Training-time geometric augmentation.

Volumes: independent H/W flips, right-angle rotation in the H-W plane and a
uniform zoom in [1.1, 1.3] with a center crop back to the input grid.
Images: horizontal flip and a continuous rotation in [-10, +10] degrees with
bilinear resampling and zero fill.  All draws come from the caller's RNG in a
fixed order, so a given (stream, input) pair is reproducible.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np

from .niftiio import Volume
from .preprocess import _resample_axis, _centred_positions, cubic_taps

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
    out = vox.astype(np.float64)
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
    vox = zoom_center_crop(np.ascontiguousarray(vox), factor)
    return Volume(voxels=np.ascontiguousarray(vox, dtype=np.float32),
                  axis_order=volume.axis_order)


def rotate_bilinear(img: np.ndarray, degrees: float) -> np.ndarray:
    """Rotate (C, H, W) about the image center; zero outside the support."""
    c, h, w = img.shape
    theta = math.radians(degrees)
    cos, sin = math.cos(theta), math.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    dy, dx = yy - cy, xx - cx
    src_y = cos * dy + sin * dx + cy
    src_x = -sin * dy + cos * dx + cx

    y0 = np.floor(src_y).astype(np.int64)
    x0 = np.floor(src_x).astype(np.int64)
    ty = src_y - y0
    tx = src_x - x0

    out = np.zeros_like(img, dtype=np.float64)
    for oy, ox, wgt in ((0, 0, (1 - ty) * (1 - tx)), (0, 1, (1 - ty) * tx),
                        (1, 0, ty * (1 - tx)), (1, 1, ty * tx)):
        ys, xs = y0 + oy, x0 + ox
        valid = (ys >= 0) & (ys < h) & (xs >= 0) & (xs < w)
        ysc = np.clip(ys, 0, h - 1)
        xsc = np.clip(xs, 0, w - 1)
        contrib = img[:, ysc, xsc] * (wgt * valid)
        out += contrib
    return out


def augment_us(img: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """(C, H, W) float image -> same-shape augmented image."""
    if rng.random() < 0.5:
        img = img[:, :, ::-1]
    degrees = float(rng.uniform(-ROTATION_DEGREES, ROTATION_DEGREES))
    out = rotate_bilinear(np.ascontiguousarray(img), degrees)
    return np.ascontiguousarray(out, dtype=np.float32)
