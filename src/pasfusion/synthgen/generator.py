"""Deterministic paired synthetic data with planted class signals.

Positive volumes receive a dark ellipsoidal band (a few voxels thick);
positive images receive bright elliptical blobs.  ``redundant`` mode plants
both; ``complementary`` mode plants exactly one per positive pair, strictly
alternating, so neither modality alone can separate the classes.  All draws
come from counter-based Philox streams keyed by (seed, index, field), so
generation order and parallelism cannot change results.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..atomic import write_atomic
from ..datapipe import Pairing, Sample, SampleManifest, write_rimg, write_rvol
from ..datapipe.preprocess import _resample_axis, linear_taps
from ..models.profiles import ScaleProfile, get_profile

# geometry constants (voxels / pixels); fixed so acceptance thresholds are stable
BAND_THICKNESS = (2, 4)          # inclusive range of dark-band half-thickness basis
BLOB_RADIUS = (5, 9)             # inclusive range of lacunae radii
BLOB_COUNT = (2, 4)
FIELD_KNOTS = (4, 4, 2)
BACKGROUND_LEVEL = 0.45

_FIELD_IDS = {"label": 0, "volume": 1, "image": 2}


@dataclass
class SynthSpec:
    n_pairs: int
    positive_fraction: float
    profile: str = "micro"
    mode: str = "complementary"        # or "redundant"
    signal_strength: float = 0.5
    noise_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("n_pairs", 0), ("seed", 0)):    # 0 pairs: an empty dataset
            if type(value := getattr(self, name)) is not int or value < minimum:
                raise ValueError(f"{name} must be an int >= {minimum}, got {value!r}")
        get_profile(self.profile)
        if not 0.0 < self.positive_fraction < 1.0:
            raise ValueError("positive_fraction must lie in (0, 1)")
        if self.signal_strength <= 0:
            raise ValueError("signal_strength must be positive")
        if self.mode not in ("redundant", "complementary"):
            raise ValueError(f"mode must be redundant|complementary, got {self.mode!r}")

    @property
    def scale(self) -> ScaleProfile:
        return get_profile(self.profile)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1, sort_keys=True)


def _stream(spec: SynthSpec, index: int, field: str) -> np.random.Generator:
    key = np.array([np.uint64(spec.seed),
                    np.uint64(index * 8 + _FIELD_IDS[field])], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _labels(spec: SynthSpec) -> np.ndarray:
    n_pos = int(round(spec.n_pairs * spec.positive_fraction))
    labels = np.zeros(spec.n_pairs, dtype=np.int64)
    perm = _stream(spec, 0, "label").permutation(spec.n_pairs)
    labels[perm[:n_pos]] = 1
    return labels


def _positive_rank(labels: np.ndarray, index: int) -> int:
    return int(labels[:index].sum())


def _background(rng: np.random.Generator, extents, noise_sigma: float) -> np.ndarray:
    knot_shape = FIELD_KNOTS[:len(extents)]
    knots = rng.uniform(-0.12, 0.12, size=knot_shape)
    field = knots
    for ax, n in enumerate(extents):     # align-corners linear upsampling
        field = _resample_axis(field, np.linspace(0, knots.shape[ax] - 1, n), ax, linear_taps)
    field = field - field.mean() + BACKGROUND_LEVEL   # pin the mean per sample
    return field + rng.normal(0.0, noise_sigma, size=extents)


def _plant_band(vox: np.ndarray, rng: np.random.Generator, strength: float) -> None:
    """Dark ellipsoidal streak: wide in-plane, a few voxels thick in depth-like axis."""
    h, w, d = vox.shape
    center = np.array([h, w, d]) / 2.0 + rng.uniform(-0.1, 0.1, 3) * np.array([h, w, d])
    thickness = int(rng.integers(BAND_THICKNESS[0], BAND_THICKNESS[1] + 1))
    radii = np.array([
        rng.uniform(0.30, 0.45) * h,
        rng.uniform(0.30, 0.45) * w,
        max(thickness / 2.0, 1.0),
    ])
    axis = int(rng.integers(0, 3))      # which axis carries the thin extent
    radii = np.roll(radii, axis - 2)
    grid = np.ogrid[0:h, 0:w, 0:d]
    dist = sum(((g - c) / r) ** 2 for g, c, r in zip(grid, center, radii))
    vox[dist <= 1.0] -= strength


def _plant_blobs(img: np.ndarray, rng: np.random.Generator, strength: float) -> None:
    """Bright elliptical blobs ('lacunae')."""
    h, w = img.shape
    count = int(rng.integers(BLOB_COUNT[0], BLOB_COUNT[1] + 1))
    for _ in range(count):
        cy = rng.uniform(0.25, 0.75) * h
        cx = rng.uniform(0.25, 0.75) * w
        ry = rng.uniform(BLOB_RADIUS[0], BLOB_RADIUS[1])
        rx = rng.uniform(BLOB_RADIUS[0], BLOB_RADIUS[1])
        yy, xx = np.ogrid[0:h, 0:w]
        dist = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2
        img[dist <= 1.0] += strength


def signal_flags(spec: SynthSpec, label: int, positive_rank: int) -> tuple[bool, bool]:
    if label == 0:
        return (False, False)
    if spec.mode == "redundant":
        return (True, True)
    return (positive_rank % 2 == 0, positive_rank % 2 == 1)


def generate_pair(spec: SynthSpec, index: int):
    """-> (volume voxels (H,W,D) f32, image pixels (H,W) f32, label, flags)."""
    if not 0 <= index < spec.n_pairs:
        raise IndexError(f"index {index} out of range for {spec.n_pairs} pairs")
    labels = _labels(spec)
    label = int(labels[index])
    flags = signal_flags(spec, label, _positive_rank(labels, index))

    vol_rng = _stream(spec, index, "volume")
    vox = _background(vol_rng, spec.scale.mri_input, spec.noise_sigma)
    if flags[0]:
        _plant_band(vox, vol_rng, spec.signal_strength)

    img_rng = _stream(spec, index, "image")
    img = _background(img_rng, spec.scale.us_input, spec.noise_sigma)
    if flags[1]:
        _plant_blobs(img, img_rng, spec.signal_strength)

    return (vox.astype(np.float32), img.astype(np.float32), label, flags)


def generate_dataset(spec: SynthSpec, out_dir) -> SampleManifest:
    """Write .rvol/.rimg files plus a paired manifest; returns the manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    samples: list[Sample] = []
    pairing: list[Pairing] = []
    flag_index = {}
    for i in range(spec.n_pairs):
        vox, img, label, flags = generate_pair(spec, i)
        pid = f"synth{i:04d}"
        vol_uri = str(out / f"{pid}_mri.rvol")
        img_uri = str(out / f"{pid}_us.rimg")
        write_rvol(vol_uri, vox)
        write_rimg(img_uri, img)
        samples.append(Sample(pid, "mri", label, vol_uri))
        samples.append(Sample(pid, "us", label, img_uri))
        pairing.append(Pairing(pid, vol_uri, img_uri, label))
        flag_index[pid] = {"mri_signal": flags[0], "us_signal": flags[1]}

    manifest = SampleManifest(samples=samples, pairing=pairing).validate()
    manifest.save(out / "manifest.json")
    write_atomic(out / "spec.json", spec.to_json())
    write_atomic(out / "signals.json", json.dumps(flag_index, indent=1, sort_keys=True))
    return manifest
