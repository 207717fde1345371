"""Single-file NIfTI-1 (.nii) reading and writing.

Only these header fields are read or written, each at its fixed byte offset
in the 348-byte header: ``sizeof_hdr`` @0, ``regular`` @38 (written only),
``dim`` @40, ``datatype``/``bitpix`` @70, ``pixdim`` @76 (written only),
``vox_offset``/``scl_slope``/``scl_inter`` @108 and ``magic`` @344; every other
byte is written as zero.  The reader takes the byte order from ``dim[0]``,
accepts datatypes u8/i16/f32/f64 and applies ``scl_slope``/``scl_inter``.
Detached-header files (magic "ni1") and gzip streams are out of scope and
rejected distinctly.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from ..atomic import write_atomic

HEADER_SIZE = 348
MIN_VOX_OFFSET = 352

# datatype code -> numpy dtype without byte order
_DATATYPES = {2: "u1", 4: "i2", 16: "f4", 64: "f8"}


class NiftiError(ValueError):
    """Base class for NIfTI parsing failures."""


class NotNiftiError(NiftiError):
    """The magic bytes do not identify a NIfTI-1 file."""


class UnsupportedNiftiError(NiftiError):
    """Valid NIfTI-1 but outside the supported subset."""


class TruncatedNiftiError(NiftiError):
    """File ends before the declared voxel payload."""


@dataclass
class Volume:
    """Voxel grid plus the axis-order tag of the on-disk layout."""

    voxels: np.ndarray
    axis_order: str = "HWD"


def read_nifti(path) -> Volume:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < MIN_VOX_OFFSET:
        raise TruncatedNiftiError(
            f"file is {len(blob)} bytes; a single-file NIfTI-1 needs >= {MIN_VOX_OFFSET}")
    for endian in "<>":
        dim = struct.unpack_from(endian + "8h", blob, 40)
        if 1 <= dim[0] <= 7:
            break
    else:
        raise NotNiftiError("dim[0] invalid under either byte order")

    magic = blob[344:348]
    if magic == b"ni1\x00":
        raise UnsupportedNiftiError("detached-header NIfTI (magic 'ni1') is not supported")
    if magic != b"n+1\x00":
        raise NotNiftiError(f"bad magic {magic!r}")
    (sizeof_hdr,) = struct.unpack_from(endian + "i", blob, 0)
    if sizeof_hdr != HEADER_SIZE:
        raise NotNiftiError(f"sizeof_hdr = {sizeof_hdr}, expected {HEADER_SIZE}")

    (code,) = struct.unpack_from(endian + "h", blob, 70)
    if code not in _DATATYPES:
        raise UnsupportedNiftiError(f"datatype code {code} not supported")
    dtype = np.dtype(endian + _DATATYPES[code])

    ndim = dim[0]
    shape = dim[1:1 + ndim]
    if any(e < 1 for e in shape):
        raise NiftiError(f"non-positive extent in dim: {shape}")
    count = math.prod(shape)
    vox_offset, slope, inter = struct.unpack_from(endian + "3f", blob, 108)
    if not math.isfinite(vox_offset):
        raise NiftiError(f"vox_offset {vox_offset} is not finite")
    offset = max(int(vox_offset), MIN_VOX_OFFSET)
    need = offset + count * dtype.itemsize
    if len(blob) < need:
        raise TruncatedNiftiError(
            f"voxel payload needs {need} bytes, file has {len(blob)}")

    raw = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
    voxels = raw.reshape(shape, order="F").astype(np.float32)
    if slope != 0.0:
        voxels = voxels * np.float32(slope) + np.float32(inter)
    return Volume(voxels=np.ascontiguousarray(voxels), axis_order="HWD"[:ndim] or "HWD")


def write_nifti(path, volume: Volume) -> None:
    """Write float32 voxels as a minimal single-file NIfTI-1, atomically."""
    vox = np.asarray(volume.voxels, dtype=np.float32)
    ndim = vox.ndim
    if not 1 <= ndim <= 7:
        raise NiftiError(f"cannot store rank-{ndim} volume")
    header = bytearray(MIN_VOX_OFFSET)
    struct.pack_into("<i", header, 0, HEADER_SIZE)
    header[38:39] = b"r"
    struct.pack_into("<8h", header, 40, ndim, *vox.shape, *[1] * (7 - ndim))
    struct.pack_into("<2h", header, 70, 16, 32)       # datatype f32, bitpix
    struct.pack_into("<8f", header, 76, *[1.0] * 8)   # pixdim
    struct.pack_into("<f", header, 108, float(MIN_VOX_OFFSET))
    header[344:348] = b"n+1\x00"
    write_atomic(path, bytes(header) + vox.tobytes(order="F"))
