"""Gradient-weighted class activation maps.

Channel weights are the spatial means of the class-score gradient at the
captured layer output; the map is ReLU(sum_c w_c A_c), upsampled to the
input grid (bilinear/trilinear) by ``datapipe.resample`` and min-max
normalized by ``datapipe.minmax_unit``, which raises ``PreprocessError`` (the
CLI exits 3) on a non-finite map.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import ndcore as ndc
from ..config import ConfigError
from ..datapipe.preprocess import linear_taps, minmax_unit, resample


class GradCamError(ConfigError):
    """A Grad-CAM request that the model cannot serve; the CLI exits 2."""


@dataclass
class Heatmap:
    values: np.ndarray              # [0, 1], input spatial shape
    target_layer: str
    class_index: int
    sample_id: str = ""


def cam_from_capture(activation: np.ndarray, grad: np.ndarray,
                     out_extents) -> np.ndarray:
    """Core formula for one sample: (C, *sp) activation/gradient pair."""
    spatial_axes = tuple(range(1, activation.ndim))
    weights = grad.mean(axis=spatial_axes)
    cam = np.maximum(np.tensordot(weights, activation, axes=(0, 0)), 0.0)
    return minmax_unit(resample(cam.astype(np.float64), out_extents, linear_taps))


def gradcam(model, inputs, class_index: int, target=None,
            sample_id: str = "") -> Heatmap:
    """Heatmap for one sample against ``class_index``.

    ``inputs`` is a tensor tuple matching the model's forward signature (one
    element for unimodal models, two for fusion).  ``target`` is any module
    of the model (default: ``model.cam_target()``; fusion models have one per
    branch in ``cam_targets()``).  Two-class heads use the class logit as
    the score; the fusion scalar uses +logit for class 1 and -logit for 0.

    The model's parameters are frozen for the call and the target's output
    is captured as a leaf, so the backward pass runs only from the score to
    the target and leaves every parameter's ``.grad`` untouched.
    """
    if target is None:
        if not hasattr(model, "cam_target"):
            raise GradCamError(f"{type(model).__name__} has no default target; pass target=")
        target = model.cam_target()
    was_training = model.training
    params = model.parameters()
    flags = [p.requires_grad for p in params]
    model.eval()
    target.capture = True
    try:
        for p in params:
            p.requires_grad = False
        with ndc.Tape():
            out = model(*[ndc.Tensor(np.asarray(x, dtype=np.float32)[None])
                          for x in inputs])
            logits = out.logits
            if logits.shape[1] == 1:
                if class_index not in (0, 1):
                    raise GradCamError(f"class index {class_index} invalid for a scalar head")
                score = ndc.sum_(logits) if class_index == 1 else ndc.sum_(-logits)
            else:
                if not 0 <= class_index < logits.shape[1]:
                    raise GradCamError(
                        f"class index {class_index} out of range for {logits.shape[1]} classes")
                mask = np.zeros(logits.shape, np.float32)
                mask[0, class_index] = 1.0
                score = ndc.sum_(logits * ndc.Tensor(mask))
            captured = target.captured
            if captured is None:
                raise GradCamError("target layer did not run during forward")
            ndc.backward(score)
    finally:
        for p, flag in zip(params, flags):
            p.requires_grad = flag
        target.capture = False
        target.captured = None
        if was_training:
            model.train()

    activation = captured.data[0]
    # fusion models take (volume, image): the map belongs to the input of its rank
    sources = [x for x in inputs if np.ndim(x) == activation.ndim]
    if not sources:
        raise GradCamError(f"no input has the rank of the target map {activation.shape}")
    values = cam_from_capture(activation, captured.grad[0], np.shape(sources[0])[1:])
    return Heatmap(values=values, target_layer=_layer_name(model, target),
                   class_index=class_index, sample_id=sample_id)


def _layer_name(model, target) -> str:
    return next((name for name, mod in model.named_modules() if mod is target),
                "unregistered")
