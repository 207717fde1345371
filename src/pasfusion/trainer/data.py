"""Dataset assembly for the training loop: file loading, preprocessing cache,
oversampling occurrences and per-epoch batch iteration."""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..datapipe import (
    Sample,
    SampleManifest,
    Volume,
    augment_mri,
    augment_us,
    oversample_minority,
    preprocess_mri,
    preprocess_us,
    read_nifti,
    read_rimg,
    read_rvol,
    sample_rng,
)
from ..models.profiles import ScaleProfile


class DataError(ValueError):
    pass


def load_raw_volume(uri: str) -> Volume:
    suffix = Path(uri).suffix.lower()
    if suffix == ".rvol":
        return read_rvol(uri)
    if suffix == ".nii":
        return read_nifti(uri)
    raise DataError(f"unsupported volume format {suffix!r} for {uri}")


def load_raw_image(uri: str) -> np.ndarray:
    suffix = Path(uri).suffix.lower()
    if suffix == ".rimg":
        return read_rimg(uri)
    raise DataError(f"unsupported image format {suffix!r} for {uri}")


class PreprocessCache:
    """uri -> preprocessed array, shared across runs of one protocol."""

    def __init__(self, profile: ScaleProfile):
        self.profile = profile
        self._volumes: dict[str, np.ndarray] = {}
        self._images: dict[str, np.ndarray] = {}

    def volume(self, uri: str) -> np.ndarray:
        if uri not in self._volumes:
            vol = preprocess_mri(load_raw_volume(uri), target=self.profile.mri_input)
            self._volumes[uri] = vol.voxels
        return self._volumes[uri]

    def image(self, uri: str) -> np.ndarray:
        if uri not in self._images:
            self._images[uri] = preprocess_us(load_raw_image(uri),
                                              target=self.profile.us_input)
        return self._images[uri]


@dataclass
class Item:
    """One training/eval example; fusion items carry both uris."""

    patient_id: str
    label: int
    mri_uri: str | None = None
    us_uri: str | None = None
    occurrence: int = 0
    force_augment: bool = False


def items_from_samples(samples: list[Sample], modality: str) -> list[Item]:
    occurrences: dict[str, int] = {}
    items = []
    for s in samples:
        occ = occurrences.get(s.patient_id, 0)
        occurrences[s.patient_id] = occ + 1
        items.append(Item(patient_id=s.patient_id, label=s.label,
                          mri_uri=s.uri if modality == "mri" else None,
                          us_uri=s.uri if modality == "us" else None,
                          occurrence=occ, force_augment=s.force_augment))
    return items


def items_from_pairs(manifest: SampleManifest, split: str | None) -> list[Item]:
    return [Item(patient_id=p.patient_id, label=p.label, mri_uri=p.mri, us_uri=p.us)
            for p in manifest.pairs(split)]


def items_for(manifest: SampleManifest, model_kind: str, split: str | None) -> list[Item]:
    """One split's items for a model kind: pairs for fusion, else samples."""
    if model_kind == "fusion":
        return items_from_pairs(manifest, split)
    return items_from_samples(manifest.modality_samples(model_kind, split), model_kind)


def build_training_items(manifest: SampleManifest, model_kind: str,
                         oversample: bool, seed: int) -> tuple[list[Item], list[Item]]:
    """-> (train items, val items) for the given model kind."""
    if oversample and model_kind != "fusion":
        train_samples = oversample_minority(
            manifest.modality_samples(model_kind, "train"), seed)
        train = items_from_samples(train_samples, model_kind)
    else:
        train = items_for(manifest, model_kind, "train")
    val = items_for(manifest, model_kind, "val")
    if not train:
        raise DataError(f"no training samples for model {model_kind!r}")
    if not val:
        raise DataError(f"no validation samples for model {model_kind!r}")
    return train, val


def assemble_batch(items: list[Item], cache: PreprocessCache, model_kind: str,
                   augment: bool, seed: int, epoch: int):
    """-> dict with 'volumes' (B,1,H,W,D), 'images' (B,3,H,W), 'labels'."""
    vols, imgs = [], []
    labels = np.array([it.label for it in items], dtype=np.int64)
    for it in items:
        do_aug = augment or it.force_augment
        rng = sample_rng(seed, it.patient_id, epoch, it.occurrence) if do_aug else None
        if it.mri_uri is not None:
            arr = cache.volume(it.mri_uri)
            if do_aug:
                arr = augment_mri(Volume(voxels=arr), rng).voxels
            vols.append(arr[None])
        if it.us_uri is not None:
            img = cache.image(it.us_uri)
            if do_aug:
                img = augment_us(img, rng)
            imgs.append(img)
    batch = {"labels": labels}
    if vols:
        batch["volumes"] = np.stack(vols).astype(np.float32)
    if imgs:
        batch["images"] = np.stack(imgs).astype(np.float32)
    return batch


def epoch_batches(items: list[Item], batch_size: int, seed: int, epoch: int):
    order = np.random.default_rng((seed * 100_003 + epoch) & 0x7FFFFFFF).permutation(len(items))
    for start in range(0, len(items), batch_size):
        yield [items[i] for i in order[start:start + batch_size]]
