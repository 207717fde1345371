from .augment import augment_mri, augment_us, rotate_bilinear, sample_rng, zoom_center_crop
from .manifest import (
    ManifestError,
    Pairing,
    Sample,
    SampleManifest,
    class_weights,
    largest_remainder,
    oversample_minority,
    stratified_split,
)
from .niftiio import (
    NiftiError,
    NotNiftiError,
    TruncatedNiftiError,
    UnsupportedNiftiError,
    Volume,
    read_nifti,
    write_nifti,
)
from .preprocess import (
    PreprocessError,
    catmull_rom,
    minmax_unit,
    preprocess_mri,
    preprocess_us,
    quantize_u8,
)
from .rawio import RawFormatError, read_rimg, read_rvol, write_rimg, write_rvol

__all__ = [
    "Volume", "read_nifti", "write_nifti", "NiftiError", "NotNiftiError",
    "UnsupportedNiftiError", "TruncatedNiftiError",
    "read_rvol", "write_rvol", "read_rimg", "write_rimg", "RawFormatError",
    "Sample", "Pairing", "SampleManifest", "ManifestError",
    "stratified_split", "oversample_minority", "class_weights",
    "largest_remainder",
    "preprocess_mri", "preprocess_us", "minmax_unit", "quantize_u8",
    "catmull_rom", "PreprocessError",
    "augment_mri", "augment_us", "sample_rng", "rotate_bilinear",
    "zoom_center_crop",
]
