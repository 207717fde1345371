"""Atomic writes: a write that fails mid-way keeps the previous file whole."""
import builtins

import numpy as np
import pytest

import pasfusion.atomic as atomic
from pasfusion.datapipe import Sample, SampleManifest
from pasfusion.evalstats import write_json, write_metrics_csv
from pasfusion.gradcam import Heatmap, render_overlay, write_pnm
from pasfusion.trainer import load_checkpoint, save_checkpoint


class _HalfWrite:
    """A file opened for writing that writes half of the payload, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        return False

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError(28, "No space left on device")


WRITERS = {
    "checkpoint": lambda path, v: save_checkpoint(
        path, {"w": np.full(3, v, np.float32)}, {"v": v}),
    "json": lambda path, v: write_json(path, {"v": v}),
    "csv": lambda path, v: write_metrics_csv(path, [{"v": v}], ["v"]),
    "manifest": lambda path, v: SampleManifest(
        samples=[Sample(f"p{v}", "mri", 0, "scan.nii", "train")]).save(path),
    "pgm": lambda path, v: write_pnm(path, np.full((4, 5), v, np.uint8)),
    "ppm": lambda path, v: write_pnm(path, np.full((4, 5, 3), v, np.uint8)),
    "overlay_index": lambda path, v: render_overlay(
        Heatmap(np.linspace(0.0, 1.0, 20).reshape(4, 5), "layer", 1, f"s{v}"),
        np.full((4, 5), v / 4.0), path.parent, stem=path.name),
}


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, kind):
    path = tmp_path / "artifact"
    WRITERS[kind](path, 1)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert not [name for name in before if name.endswith(".tmp")]

    real_open = builtins.open
    monkeypatch.setattr(atomic, "open", lambda *a, **k: _HalfWrite(real_open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="No space"):
        WRITERS[kind](path, 2)
    monkeypatch.undo()

    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    if kind == "checkpoint":
        state, sidecar = load_checkpoint(path)
        assert state["w"].tolist() == [1.0] * 3 and sidecar["v"] == 1


def test_failed_index_write_keeps_previous_index(tmp_path, monkeypatch):
    """The images of a render are replaced one by one; the index that lists
    them is replaced whole or not at all."""
    WRITERS["overlay_index"](tmp_path / "artifact", 1)
    index = tmp_path / "artifact_index.json"
    before = index.read_bytes()

    real_open = builtins.open

    def fail_on_index(file, *a, **k):
        fh = real_open(file, *a, **k)
        return _HalfWrite(fh) if "_index.json" in str(file) else fh

    monkeypatch.setattr(atomic, "open", fail_on_index, raising=False)
    with pytest.raises(OSError, match="No space"):
        WRITERS["overlay_index"](tmp_path / "artifact", 2)
    monkeypatch.undo()

    assert index.read_bytes() == before
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
