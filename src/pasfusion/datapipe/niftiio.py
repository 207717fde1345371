"""Single-file NIfTI-1 (.nii) reading and writing.

Covers the 348-byte header, the dim[0]-based endianness heuristic, datatypes
u8/i16/f32/f64 and scl_slope/scl_inter rescaling.  Detached-header files
(magic "ni1") and gzip streams are out of scope and rejected distinctly.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

HEADER_SIZE = 348
MIN_VOX_OFFSET = 352

# (code, numpy dtype, bitpix)
_DATATYPES = {
    2: ("u1", 8),
    4: ("i2", 16),
    16: ("f4", 32),
    64: ("f8", 64),
}

_STRUCT_FIELDS = (
    ("sizeof_hdr", "i"), ("data_type", "10s"), ("db_name", "18s"),
    ("extents", "i"), ("session_error", "h"), ("regular", "c"),
    ("dim_info", "c"), ("dim", "8h"), ("intent_p1", "f"), ("intent_p2", "f"),
    ("intent_p3", "f"), ("intent_code", "h"), ("datatype", "h"),
    ("bitpix", "h"), ("slice_start", "h"), ("pixdim", "8f"),
    ("vox_offset", "f"), ("scl_slope", "f"), ("scl_inter", "f"),
    ("slice_end", "h"), ("slice_code", "b"), ("xyzt_units", "b"),
    ("cal_max", "f"), ("cal_min", "f"), ("slice_duration", "f"),
    ("toffset", "f"), ("glmax", "i"), ("glmin", "i"), ("descrip", "80s"),
    ("aux_file", "24s"), ("qform_code", "h"), ("sform_code", "h"),
    ("quatern_b", "f"), ("quatern_c", "f"), ("quatern_d", "f"),
    ("qoffset_x", "f"), ("qoffset_y", "f"), ("qoffset_z", "f"),
    ("srow_x", "4f"), ("srow_y", "4f"), ("srow_z", "4f"),
    ("intent_name", "16s"), ("magic", "4s"),
)
_STRUCT_FMT = "".join(fmt for _, fmt in _STRUCT_FIELDS)
assert struct.calcsize("<" + _STRUCT_FMT) == HEADER_SIZE


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


def _unpack_header(raw: bytes):
    little = struct.unpack_from("<8h", raw, 40)
    endian = "<"
    if not 1 <= little[0] <= 7:
        big = struct.unpack_from(">8h", raw, 40)
        if not 1 <= big[0] <= 7:
            raise NotNiftiError("dim[0] invalid under either byte order")
        endian = ">"
    values = struct.unpack(endian + _STRUCT_FMT, raw)
    fields = {}
    i = 0
    for name, fmt in _STRUCT_FIELDS:
        n = int(fmt[:-1]) if len(fmt) > 1 and fmt[-1] in "hf" else 1
        if fmt.endswith("s") or n == 1:
            fields[name] = values[i]
            i += 1
        else:
            fields[name] = values[i:i + n]
            i += n
    return fields, endian


def read_nifti(path) -> Volume:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < MIN_VOX_OFFSET:
        raise TruncatedNiftiError(
            f"file is {len(blob)} bytes; a single-file NIfTI-1 needs >= {MIN_VOX_OFFSET}")
    fields, endian = _unpack_header(blob[:HEADER_SIZE])

    magic = fields["magic"]
    if magic == b"ni1\x00":
        raise UnsupportedNiftiError("detached-header NIfTI (magic 'ni1') is not supported")
    if magic != b"n+1\x00":
        raise NotNiftiError(f"bad magic {magic!r}")
    if fields["sizeof_hdr"] != HEADER_SIZE:
        raise NotNiftiError(f"sizeof_hdr = {fields['sizeof_hdr']}, expected {HEADER_SIZE}")

    code = fields["datatype"]
    if code not in _DATATYPES:
        raise UnsupportedNiftiError(f"datatype code {code} not supported")
    base, _ = _DATATYPES[code]
    dtype = np.dtype(endian + base)

    ndim = fields["dim"][0]
    shape = tuple(int(e) for e in fields["dim"][1:1 + ndim])
    if any(e < 1 for e in shape):
        raise NiftiError(f"non-positive extent in dim: {shape}")
    count = int(np.prod(shape))
    offset = int(fields["vox_offset"])
    if offset < MIN_VOX_OFFSET:
        offset = MIN_VOX_OFFSET
    need = offset + count * dtype.itemsize
    if len(blob) < need:
        raise TruncatedNiftiError(
            f"voxel payload needs {need} bytes, file has {len(blob)}")

    raw = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
    voxels = raw.reshape(shape, order="F").astype(np.float32)
    slope, inter = fields["scl_slope"], fields["scl_inter"]
    if slope != 0.0:
        voxels = voxels * np.float32(slope) + np.float32(inter)
    return Volume(voxels=np.ascontiguousarray(voxels), axis_order="HWD"[:ndim] or "HWD")


def write_nifti(path, volume: Volume) -> None:
    """Write float32 voxels as a minimal single-file NIfTI-1."""
    vox = np.asarray(volume.voxels, dtype=np.float32)
    ndim = vox.ndim
    if not 1 <= ndim <= 7:
        raise NiftiError(f"cannot store rank-{ndim} volume")
    dim = [ndim] + list(vox.shape) + [1] * (7 - ndim)
    pixdim = [1.0] * 8

    values = []
    defaults = {
        "sizeof_hdr": HEADER_SIZE, "data_type": b"", "db_name": b"",
        "extents": 0, "session_error": 0, "regular": b"r", "dim_info": b"\x00",
        "dim": tuple(dim), "intent_p1": 0.0, "intent_p2": 0.0, "intent_p3": 0.0,
        "intent_code": 0, "datatype": 16, "bitpix": 32, "slice_start": 0,
        "pixdim": tuple(pixdim), "vox_offset": float(MIN_VOX_OFFSET),
        "scl_slope": 0.0, "scl_inter": 0.0, "slice_end": 0, "slice_code": 0,
        "xyzt_units": 0, "cal_max": 0.0, "cal_min": 0.0, "slice_duration": 0.0,
        "toffset": 0.0, "glmax": 0, "glmin": 0, "descrip": b"", "aux_file": b"",
        "qform_code": 0, "sform_code": 0, "quatern_b": 0.0, "quatern_c": 0.0,
        "quatern_d": 0.0, "qoffset_x": 0.0, "qoffset_y": 0.0, "qoffset_z": 0.0,
        "srow_x": (0.0,) * 4, "srow_y": (0.0,) * 4, "srow_z": (0.0,) * 4,
        "intent_name": b"", "magic": b"n+1\x00",
    }
    for name, fmt in _STRUCT_FIELDS:
        v = defaults[name]
        if isinstance(v, tuple):
            values.extend(v)
        else:
            values.append(v)
    header = struct.pack("<" + _STRUCT_FMT, *values)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(b"\x00" * (MIN_VOX_OFFSET - HEADER_SIZE))
        fh.write(np.asfortranarray(vox).tobytes(order="F"))
