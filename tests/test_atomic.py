"""Atomic writes: a write that fails mid-way keeps the previous file whole."""
import ast
import builtins
from pathlib import Path

import numpy as np
import pytest

import pasfusion
import pasfusion.atomic as atomic
from pasfusion.datapipe import (Sample, SampleManifest, Volume, write_nifti, write_rimg,
                                write_rvol)
from pasfusion.evalstats import write_json, write_metrics_csv
from pasfusion.gradcam import Heatmap, render_overlay, write_pnm
from pasfusion.synthgen import SynthSpec, generate_dataset
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
    "rvol": lambda path, v: write_rvol(path, np.full((2, 3, 4), v, np.float32)),
    "rimg": lambda path, v: write_rimg(path, np.full((3, 4), v, np.float32)),
    "nifti": lambda path, v: write_nifti(path, Volume(np.full((2, 3, 4), v, np.float32))),
    "synth_spec": lambda path, v: generate_dataset(
        SynthSpec(n_pairs=2, positive_fraction=0.5, seed=v), path.parent),
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


@pytest.mark.parametrize("name", ["spec.json", "signals.json"])
def test_failed_synth_sidecar_write_keeps_previous_file(tmp_path, monkeypatch, name):
    WRITERS["synth_spec"](tmp_path / "artifact", 1)
    before = (tmp_path / name).read_bytes()

    real_open = builtins.open

    def fail_on_name(file, *a, **k):
        fh = real_open(file, *a, **k)
        return _HalfWrite(fh) if f".{name}." in str(file) else fh

    monkeypatch.setattr(atomic, "open", fail_on_name, raising=False)
    with pytest.raises(OSError, match="No space"):
        WRITERS["synth_spec"](tmp_path / "artifact", 2)
    monkeypatch.undo()

    assert (tmp_path / name).read_bytes() == before
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


def _opens_for_writing(call: ast.Call) -> bool:
    """``open(...)`` or ``x.open(...)`` whose mode writes, appends, creates or
    updates (an unknown mode counts), or ``x.write_text``/``x.write_bytes``."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    pos = 0 if isinstance(func, ast.Attribute) else 1   # Path.open(mode) / open(file, mode)
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"),
                call.args[pos] if len(call.args) > pos else None)
    if mode is None:
        return False
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return any(c in mode.value for c in "wax+")


def test_only_atomic_module_opens_files_for_writing():
    root = Path(pasfusion.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "atomic.py" and path.parent == root:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and _opens_for_writing(node):
                offenders.append(f"{path.relative_to(root)}:{node.lineno}")
    assert not offenders, f"write through pasfusion.atomic.write_atomic: {offenders}"
