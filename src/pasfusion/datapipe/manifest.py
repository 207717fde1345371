"""Sample manifests: JSON schema, validation, patient-level stratified
splitting, minority oversampling and class weights."""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ..atomic import write_atomic

MANIFEST_VERSION = 1
SPLITS = ("train", "val", "test")


class ManifestError(ValueError):
    """Manifest contents violate the schema or its invariants."""


@dataclass
class Sample:
    patient_id: str
    modality: str            # "mri" | "us"
    label: int               # 0 = Normal, 1 = PAS
    uri: str
    split: str = "unassigned"
    force_augment: bool = False   # set on oversampled duplicates, not serialized

    def validate(self):
        if not all(isinstance(v, str) and v for v in (self.patient_id, self.uri)):
            raise ManifestError(f"bad patient_id/uri {self.patient_id!r}/{self.uri!r}")
        if self.modality not in ("mri", "us"):
            raise ManifestError(f"bad modality {self.modality!r}")
        if self.label not in (0, 1):
            raise ManifestError(f"label must be 0 or 1, got {self.label!r}")
        if self.split not in SPLITS + ("unassigned",):
            raise ManifestError(f"bad split {self.split!r}")


@dataclass
class Pairing:
    patient_id: str
    mri: str
    us: str
    label: int


@dataclass
class SampleManifest:
    samples: list[Sample] = field(default_factory=list)
    pairing: list[Pairing] = field(default_factory=list)
    version: int = MANIFEST_VERSION

    def validate(self) -> "SampleManifest":
        by_uri = {}
        patient_split: dict[str, str] = {}
        for s in self.samples:
            s.validate()
            by_uri[s.uri] = s
            if s.split != "unassigned":
                prev = patient_split.setdefault(s.patient_id, s.split)
                if prev != s.split:
                    raise ManifestError(
                        f"patient {s.patient_id!r} appears in splits {prev} and {s.split}")
        for p in self.pairing:
            for uri, modality in ((p.mri, "mri"), (p.us, "us")):
                s = by_uri.get(uri)
                if s is None:
                    raise ManifestError(f"pairing references unknown uri {uri!r}")
                if s.modality != modality:
                    raise ManifestError(f"pairing uri {uri!r} has modality {s.modality}")
                if s.patient_id != p.patient_id:
                    raise ManifestError(
                        f"pairing patient {p.patient_id!r} != sample patient {s.patient_id!r}")
                if s.label != p.label:
                    raise ManifestError(
                        f"pairing label {p.label} != sample label {s.label} for {uri!r}")
        return self

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "samples": [{"patient_id": s.patient_id, "modality": s.modality,
                         "label": s.label, "uri": s.uri, "split": s.split}
                        for s in self.samples],
            "pairing": [{"patient_id": p.patient_id, "mri": p.mri,
                         "us": p.us, "label": p.label} for p in self.pairing],
        }

    def save(self, path) -> None:
        write_atomic(path, json.dumps(self.to_dict(), indent=1, sort_keys=True))

    @classmethod
    def from_dict(cls, data: dict) -> "SampleManifest":
        try:
            samples = [Sample(patient_id=s["patient_id"], modality=s["modality"],
                              label=int(s["label"]), uri=s["uri"],
                              split=s.get("split", "unassigned"))
                       for s in data["samples"]]
            pairing = [Pairing(patient_id=p["patient_id"], mri=p["mri"],
                               us=p["us"], label=int(p["label"]))
                       for p in data.get("pairing", [])]
            return cls(samples=samples, pairing=pairing,
                       version=int(data.get("version", MANIFEST_VERSION))).validate()
        except ManifestError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            # TypeError also covers an unhashable pairing uri met by validate()
            raise ManifestError(f"manifest schema violation: {exc}") from None

    @classmethod
    def load(cls, path) -> "SampleManifest":
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ManifestError(f"{path}: not valid JSON ({exc})") from None
        return cls.from_dict(data)

    # -- views ----------------------------------------------------------------
    def modality_samples(self, modality: str, split: str | None = None) -> list[Sample]:
        out = [s for s in self.samples if s.modality == modality]
        if split is not None:
            out = [s for s in out if s.split == split]
        return out

    def pairs(self, split: str | None = None) -> list[Pairing]:
        if split is None:
            return list(self.pairing)
        by_uri = {s.uri: s for s in self.samples}
        return [p for p in self.pairing if by_uri[p.mri].split == split]

    def unimodal(self, modality: str) -> "SampleManifest":
        """Single-modality manifest derived from this one (pairing dropped)."""
        return SampleManifest(
            samples=[replace(s) for s in self.samples if s.modality == modality])


def largest_remainder(total: int, ratios) -> list[int]:
    """Integer allocation of ``total`` by ``ratios`` (largest fractional part wins)."""
    exact = [total * r for r in ratios]
    counts = [int(np.floor(e)) for e in exact]
    remainder = total - sum(counts)
    order = sorted(range(len(ratios)), key=lambda i: (exact[i] - counts[i], -i),
                   reverse=True)
    for i in order[:remainder]:
        counts[i] += 1
    return counts


def stratified_split(manifest: SampleManifest, ratios, seed: int) -> SampleManifest:
    """Assign train/val/test per patient, preserving per-class proportions.

    Patients are grouped per class, shuffled by ``seed``, and allocated to
    splits with largest-remainder sample targets; a patient's samples always
    land in one split.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ManifestError(f"split ratios must sum to 1, got {ratios}")
    if len(ratios) != 3:
        raise ManifestError("need exactly (train, val, test) ratios")

    by_class_patient: dict[int, dict[str, list[Sample]]] = {0: {}, 1: {}}
    for s in manifest.samples:
        by_class_patient[s.label].setdefault(s.patient_id, []).append(s)
    rng = np.random.default_rng(seed)

    for label, groups in by_class_patient.items():
        if not groups:
            raise ManifestError(f"class {label} has no samples; cannot stratify")
        patients = sorted(groups)
        rng.shuffle(patients)
        n_class = sum(len(groups[p]) for p in patients)
        targets = largest_remainder(n_class, ratios)
        deficit = list(targets)
        for pid in patients:
            size = len(groups[pid])
            dest = max(range(3), key=lambda i: (deficit[i], -i))
            deficit[dest] -= size
            for s in groups[pid]:
                s.split = SPLITS[dest]
    return manifest.validate()


def oversample_minority(train_samples: list[Sample], seed: int) -> list[Sample]:
    """Duplicate minority-class entries (with replacement) until classes match.

    Originals are all retained; duplicates carry ``force_augment`` so load-time
    augmentation makes them distinct.
    """
    by_class: dict[int, list[Sample]] = {0: [], 1: []}
    for s in train_samples:
        by_class[s.label].append(s)
    if not by_class[0] or not by_class[1]:
        raise ManifestError("oversampling needs both classes present")
    minority = 0 if len(by_class[0]) < len(by_class[1]) else 1
    need = abs(len(by_class[0]) - len(by_class[1]))
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(by_class[minority]), size=need)
    extra = [replace(by_class[minority][i], force_augment=True) for i in picks]
    return list(train_samples) + extra


def class_weights(counts) -> np.ndarray:
    """w_c = N_total / (K * n_c)."""
    counts = np.asarray(counts, dtype=np.float64)
    if np.any(counts <= 0):
        raise ManifestError(f"class weights need positive counts, got {counts}")
    return counts.sum() / (len(counts) * counts)
