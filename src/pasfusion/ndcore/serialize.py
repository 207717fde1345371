"""Flat binary parameter container.

Layout: magic ``NDC1`` followed by one block per array, ordered
lexicographically by name.  Each block is: name length (u64 LE), UTF-8 name,
rank (u64 LE), extents (u64 LE each), raw little-endian float32 data.  A
reader rejects NaN and inf: no finite model holds them.
"""
from __future__ import annotations

import io
import math
import struct

import numpy as np

MAGIC = b"NDC1"


class ContainerError(ValueError):
    """Malformed parameter container."""


def dump_arrays(arrays: dict[str, np.ndarray]) -> bytes:
    buf = io.BytesIO()
    buf.write(MAGIC)
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f4")
        encoded = name.encode("utf-8")
        buf.write(struct.pack("<Q", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<Q", arr.ndim))
        buf.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        buf.write(arr.tobytes())
    return buf.getvalue()


def load_arrays(blob: bytes) -> dict[str, np.ndarray]:
    if blob[:4] != MAGIC:
        raise ContainerError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
    arrays: dict[str, np.ndarray] = {}
    pos = 4
    total = len(blob)

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > total:
            raise ContainerError("truncated container")
        chunk = blob[pos:pos + n]
        pos += n
        return chunk

    while pos < total:
        (name_len,) = struct.unpack("<Q", take(8))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ContainerError(f"array name is not UTF-8 ({exc})") from None
        (rank,) = struct.unpack("<Q", take(8))
        shape = struct.unpack(f"<{rank}Q", take(8 * rank))
        count = math.prod(shape)
        data = np.frombuffer(take(4 * count), dtype="<f4")
        try:
            arrays[name] = data.reshape(shape).astype(np.float32)
        except ValueError as exc:     # over 64 axes, or an axis numpy cannot index
            raise ContainerError(f"array {name!r} has extents {shape} ({exc})") from None
        if not np.isfinite(data).all():
            raise ContainerError(f"array {name!r} holds a non-finite value")
    return arrays

