"""Checkpoints: the flat binary parameter container plus a JSON sidecar
(profile, package version, seed, epoch, validation curve, optimizer step)."""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .. import __version__
from ..atomic import write_atomic
from ..ndcore import ContainerError, dump_arrays, load_arrays


def snapshot_state(model, optimizer=None) -> dict[str, np.ndarray]:
    """Deep-copied arrays of model parameters/buffers (+ Adam moments)."""
    state = {k: v.copy() for k, v in model.state_arrays().items()}
    if optimizer is not None:
        state.update({k: v.copy() for k, v in optimizer.state_arrays().items()})
    return state


def save_checkpoint(path, state: dict[str, np.ndarray], sidecar: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, dump_arrays(state))
    meta = dict(sidecar)
    meta.setdefault("version", __version__)
    write_atomic(str(path) + ".json", json.dumps(meta, indent=1, sort_keys=True))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    path = Path(path)
    state = load_arrays(path.read_bytes())
    sidecar_path = Path(str(path) + ".json")
    try:
        sidecar = json.loads(sidecar_path.read_text()) if sidecar_path.exists() else {}
    except ValueError as exc:     # also the decode errors of a non-UTF-8 file
        raise ContainerError(f"{sidecar_path}: bad sidecar ({exc})") from None
    if not isinstance(sidecar, dict):
        raise ContainerError(f"{sidecar_path}: sidecar is not a JSON object")
    return state, sidecar
