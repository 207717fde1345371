"""Heatmap rendering: binary PGM (P5) sources, PPM (P6) overlays with a
piecewise-linear jet-style ramp, alpha 0.4 blend, and side-by-side
composites for 2D sources."""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..atomic import write_atomic
from .cam import Heatmap

ALPHA = 0.4

# jet-style ramp control points: (position, (r, g, b)) in 0..255
JET_STOPS = (
    (0.000, (0, 0, 128)),
    (0.125, (0, 0, 255)),
    (0.375, (0, 255, 255)),
    (0.625, (255, 255, 0)),
    (0.875, (255, 0, 0)),
    (1.000, (128, 0, 0)),
)


def jet_ramp(values: np.ndarray) -> np.ndarray:
    """Map [0, 1] values to (…, 3) uint8 colors via the control points."""
    v = np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0)
    out = np.zeros(v.shape + (3,), dtype=np.float64)
    for (p0, c0), (p1, c1) in zip(JET_STOPS, JET_STOPS[1:]):
        mask = (v >= p0) & (v <= p1)
        t = np.zeros_like(v)
        t[mask] = (v[mask] - p0) / (p1 - p0)
        for ch in range(3):
            out[..., ch][mask] = c0[ch] + t[mask] * (c1[ch] - c0[ch])
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def write_pnm(path, pixels_u8: np.ndarray) -> None:
    """Binary PGM (P5) for an (H, W) array, PPM (P6) for (H, W, 3)."""
    h, w = pixels_u8.shape[:2]
    magic = "P5" if pixels_u8.ndim == 2 else "P6"
    header = f"{magic}\n{w} {h}\n255\n".encode("ascii")
    write_atomic(path, header + np.ascontiguousarray(pixels_u8, dtype=np.uint8).tobytes())


def blend_overlay(source_gray: np.ndarray, heat: np.ndarray) -> np.ndarray:
    """out = 0.6 * src + 0.4 * ramp(h), all in 8-bit RGB."""
    src_u8 = np.clip(np.rint(np.asarray(source_gray, dtype=np.float64) * 255.0),
                     0, 255)
    src_rgb = np.repeat(src_u8[..., None], 3, axis=-1)
    ramp = jet_ramp(heat).astype(np.float64)
    out = (1.0 - ALPHA) * src_rgb + ALPHA * ramp
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def render_overlay(heatmap: Heatmap, source: np.ndarray, out_dir,
                   stem: str = "sample", slice_fractions=(0.25, 0.5, 0.75)) -> dict:
    """Write grayscale sources and overlays; 3D volumes export representative
    depth slices, 2D images additionally get a side-by-side composite.

    Returns the JSON-serializable index of emitted files (also written to
    ``<stem>_index.json``).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    source = np.asarray(source, dtype=np.float64)
    values = heatmap.values
    files: dict[str, list | str] = {"sample_id": heatmap.sample_id,
                                    "target_layer": heatmap.target_layer,
                                    "class_index": heatmap.class_index}

    if values.ndim == 3:
        slices = []
        depth = values.shape[2]
        for frac in slice_fractions:
            z = min(int(frac * depth), depth - 1)
            gray = np.clip(np.rint(source[:, :, z] * 255.0), 0, 255).astype(np.uint8)
            src_path = out / f"{stem}_z{z}_source.pgm"
            ovl_path = out / f"{stem}_z{z}_overlay.ppm"
            write_pnm(src_path, gray)
            write_pnm(ovl_path, blend_overlay(source[:, :, z], values[:, :, z]))
            slices.append({"depth": z, "source": str(src_path), "overlay": str(ovl_path)})
        files["slices"] = slices
    elif values.ndim == 2:
        gray_src = source[0] if source.ndim == 3 else source
        gray = np.clip(np.rint(gray_src * 255.0), 0, 255).astype(np.uint8)
        src_path = out / f"{stem}_source.pgm"
        ovl_path = out / f"{stem}_overlay.ppm"
        sbs_path = out / f"{stem}_side_by_side.ppm"
        write_pnm(src_path, gray)
        overlay = blend_overlay(gray_src, values)
        write_pnm(ovl_path, overlay)
        src_rgb = np.repeat(gray[..., None], 3, axis=-1)
        write_pnm(sbs_path, np.concatenate([src_rgb, overlay], axis=1))
        files.update(source=str(src_path), overlay=str(ovl_path),
                     side_by_side=str(sbs_path))
    else:
        raise ValueError(f"cannot render rank-{values.ndim} heatmap")

    index_path = out / f"{stem}_index.json"
    write_atomic(index_path, json.dumps(files, indent=1, sort_keys=True))
    files["index"] = str(index_path)
    return files
