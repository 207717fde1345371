"""Complete classifiers: the MRI hybrid, the US ResNet50 and the fusion model."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .. import ndcore as ndc
from ..ndcore import Tensor
from .densenet import DenseNet3dBranch
from .layers import Dropout, Linear, Module, RngHolder, init_parameters
from .profiles import ScaleProfile, get_profile
from .resnet import ResNet50Trunk
from .vit import Vit3dBranch


@dataclass
class ModelOutput:
    features: Tensor
    logits: Tensor
    probability: Tensor
    shapes: dict = field(default_factory=dict)


class MriFeatureExtractor(Module):
    """DenseNet + ViT branches side by side; features are their concatenation.

    An untaped forward runs the two branches concurrently (``ndc.branches``:
    DenseNet on a short-lived thread, ViT on the caller's) when BLAS has a
    pool of two threads or more to pin; the features are the same bytes.
    """

    def __init__(self, profile: ScaleProfile):
        super().__init__()
        self.profile = profile
        self.dense = DenseNet3dBranch(profile)
        self.vit = Vit3dBranch(profile)

    def forward(self, volume: Tensor) -> Tensor:
        return self.merge(*ndc.branches(partial(self.dense, volume), partial(self.vit, volume)))

    def merge(self, f_dense: Tensor, f_vit: Tensor) -> Tensor:
        """The two branch outputs concatenated; their widths go to ``last_shapes``."""
        self.last_shapes = {
            "f_dense": f_dense.shape[1],
            "f_vit": f_vit.shape[1],
            "tokens": self.profile.vit_tokens,
        }
        return ndc.concat([f_dense, f_vit], axis=1)


class MriHybridNet(Module):
    """Hybrid volume classifier with a softmax two-class head."""

    def __init__(self, profile: ScaleProfile, dropout: float = 0.5, seed: int = 0):
        super().__init__()
        self.profile = profile
        self.rng_holder = RngHolder(seed)
        self.extractor = MriFeatureExtractor(profile)
        self.fc1 = Linear(profile.combined_feature, profile.mri_head_hidden)
        self.drop = Dropout(dropout, self.rng_holder)
        self.fc2 = Linear(profile.mri_head_hidden, 2)

    def forward(self, volume: Tensor) -> ModelOutput:
        features = self.extractor(volume)
        y = self.drop(ndc.relu(self.fc1(features)))
        logits = self.fc2(y)
        shapes = dict(self.extractor.last_shapes)
        shapes["f_combined"] = features.shape[1]
        return ModelOutput(features, logits, ndc.softmax(logits), shapes)

    def cam_target(self):
        return self.extractor.dense.cam_target()


class UsResNet50Net(Module):
    """ResNet50 image classifier with a softmax two-class head."""

    def __init__(self, profile: ScaleProfile, seed: int = 0):
        super().__init__()
        self.profile = profile
        self.rng_holder = RngHolder(seed)
        self.trunk = ResNet50Trunk(profile)
        self.fc = Linear(self.trunk.out_features, 2)

    def forward(self, image: Tensor) -> ModelOutput:
        features = self.trunk(image)
        logits = self.fc(features)
        shapes = {"f_us": features.shape[1],
                  "final_map": self.trunk.last_map_shape}
        return ModelOutput(features, logits, ndc.softmax(logits), shapes)

    def cam_target(self):
        return self.trunk.cam_target()


class FusionNet(Module):
    """Feature-level fusion: unimodal extractors (heads removed), concat,
    two-layer MLP to a single sigmoid output.

    The DenseNet, ViT and ResNet50 branches meet only at the concat. An
    untaped forward runs them through one ``ndc.branches`` call: DenseNet
    on a short-lived thread, ViT then ResNet50 on the caller's, with BLAS
    pinned to one thread each. Training, Grad-CAM and a one-thread BLAS pool
    run them in order. The outputs are the same bytes either way.
    """

    def __init__(self, profile: ScaleProfile, dropout: float = 0.3, seed: int = 0):
        super().__init__()
        self.profile = profile
        self.rng_holder = RngHolder(seed)
        self.mri = MriFeatureExtractor(profile)
        self.us = ResNet50Trunk(profile)
        self.fc1 = Linear(profile.combined_feature + self.us.out_features,
                          profile.fusion_hidden)
        self.drop = Dropout(dropout, self.rng_holder)
        self.fc2 = Linear(profile.fusion_hidden, 1)

    def forward(self, volume: Tensor, image: Tensor) -> ModelOutput:
        mri = self.mri
        f_dense, f_vit, f_us = ndc.branches(partial(mri.dense, volume), partial(mri.vit, volume),
                                            partial(self.us, image))
        f_mri = mri.merge(f_dense, f_vit)
        fused = ndc.concat([f_mri, f_us], axis=1)
        y = self.drop(ndc.relu(self.fc1(fused)))
        logits = self.fc2(y)
        shapes = dict(mri.last_shapes)
        shapes.update(f_combined=f_mri.shape[1], f_us=f_us.shape[1],
                      fused=fused.shape[1], output=logits.shape[1])
        return ModelOutput(fused, logits, ndc.sigmoid(logits), shapes)

    def warm_start(self, mri_state: dict[str, np.ndarray],
                   us_state: dict[str, np.ndarray]):
        """Load unimodal checkpoint weights into the two extractor branches
        (the unimodal classifier heads are simply not referenced)."""
        self.mri.load_state_arrays(mri_state, prefix="extractor.")
        self.us.load_state_arrays(us_state, prefix="trunk.")
        return self

    def cam_targets(self):
        return {"mri": self.mri.dense.cam_target(), "us": self.us.cam_target()}


_KINDS = {"mri": MriHybridNet, "us": UsResNet50Net, "fusion": FusionNet}


def build_model(kind: str, profile: ScaleProfile | str, seed: int = 0,
                dropout: float | None = None) -> Module:
    """Construct and deterministically initialize a model by kind."""
    if isinstance(profile, str):
        profile = get_profile(profile)
    if kind not in _KINDS:
        raise ValueError(f"unknown model kind {kind!r}; choose from {sorted(_KINDS)}")
    kwargs = {"seed": seed}
    if dropout is not None and kind in ("mri", "fusion"):
        kwargs["dropout"] = dropout
    model = _KINDS[kind](profile, **kwargs)
    init_parameters(model, seed)
    model.finalize_names()
    return model
