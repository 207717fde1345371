"""Sidecar raw formats so tests and synthetic data never need NIfTI fixtures.

``.rvol``: one JSON header line ``{"extents": [H, W, D], "dtype": "f32le"}``,
a newline, then the raw little-endian float32 payload in row-major order.
``.rimg`` is the 2D analogue with extents ``[H, W]``.
"""
from __future__ import annotations

import json
import math

import numpy as np

from ..atomic import write_atomic
from .niftiio import Volume


class RawFormatError(ValueError):
    """Malformed .rvol/.rimg file."""


def _write(path, arr: np.ndarray, rank: int) -> None:
    arr = np.ascontiguousarray(arr, dtype="<f4")
    if arr.ndim != rank:
        raise RawFormatError(f"expected rank-{rank} array, got {arr.ndim}")
    header = json.dumps({"extents": list(arr.shape), "dtype": "f32le"})
    write_atomic(path, header.encode("utf-8") + b"\n" + arr.tobytes())


def _read(path, rank: int) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    nl = blob.find(b"\n")
    if nl < 0:
        raise RawFormatError(f"{path}: missing header line")
    try:
        header = json.loads(blob[:nl].decode("utf-8"))
    except ValueError as exc:     # also the decode errors and over-long integers
        raise RawFormatError(f"{path}: bad header ({exc})") from None
    if not isinstance(header, dict):
        raise RawFormatError(f"{path}: header is not a JSON object")
    if header.get("dtype") != "f32le":
        raise RawFormatError(f"{path}: unsupported dtype {header.get('dtype')!r}")
    extents = header.get("extents")
    if not isinstance(extents, list) or len(extents) != rank:
        raise RawFormatError(f"{path}: extents {extents!r} not rank {rank}")
    if any(type(e) is not int or e < 1 for e in extents):
        raise RawFormatError(f"{path}: extents {extents!r} must be positive integers")
    count = math.prod(extents)
    payload = blob[nl + 1:]
    if len(payload) < 4 * count:
        raise RawFormatError(f"{path}: payload truncated")
    return np.frombuffer(payload, dtype="<f4", count=count).reshape(extents).copy()


def write_rvol(path, voxels: np.ndarray) -> None:
    _write(path, voxels, rank=3)


def read_rvol(path) -> Volume:
    return Volume(voxels=_read(path, rank=3), axis_order="HWD")


def write_rimg(path, pixels: np.ndarray) -> None:
    _write(path, pixels, rank=2)


def read_rimg(path) -> np.ndarray:
    return _read(path, rank=2)
