"""Architectural hyperparameter profiles.

``paper`` carries the published dimensions; ``micro`` is a desk-scale set
with the same topology for fast tests and synthetic experiments.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..config import check


@dataclass(frozen=True)
class ScaleProfile:
    name: str
    mri_input: tuple[int, int, int]          # (H, W, D)
    us_input: tuple[int, int]                # (H, W)
    stem_channels: int
    growth_rate: int
    dense_block_layers: tuple[int, ...]
    dense_feature: int                       # length of the DenseNet branch embedding
    mri_head_hidden: int
    patch_size: int
    embed_dim: int
    heads: int
    encoder_blocks: int
    vit_mlp_hidden: int
    resnet_block_counts: tuple[int, ...]
    fusion_hidden: int

    def __post_init__(self):
        if any(e % self.patch_size for e in self.mri_input):
            raise ValueError(
                f"mri extents {self.mri_input} must be divisible by patch size {self.patch_size}")
        if self.embed_dim % self.heads:
            raise ValueError(
                f"embed dim {self.embed_dim} must be divisible by {self.heads} heads")

    # -- derived quantities --------------------------------------------------
    @property
    def vit_tokens(self) -> int:
        h, w, d = self.mri_input
        p = self.patch_size
        return (h // p) * (w // p) * (d // p)

    @property
    def combined_feature(self) -> int:
        return self.dense_feature + self.embed_dim


PAPER = ScaleProfile(
    name="paper",
    mri_input=(128, 128, 64),
    us_input=(224, 224),
    stem_channels=64,
    growth_rate=32,
    dense_block_layers=(6, 12, 24, 16),
    dense_feature=128,
    mri_head_hidden=256,
    patch_size=16,
    embed_dim=768,
    heads=12,
    encoder_blocks=12,
    vit_mlp_hidden=3072,
    resnet_block_counts=(3, 4, 6, 3),
    fusion_hidden=128,
)

MICRO = ScaleProfile(
    name="micro",
    mri_input=(32, 32, 16),
    us_input=(56, 56),
    stem_channels=8,
    growth_rate=8,
    dense_block_layers=(2, 2, 2, 2),
    dense_feature=32,
    mri_head_hidden=64,
    patch_size=8,
    embed_dim=64,
    heads=4,
    encoder_blocks=2,
    vit_mlp_hidden=256,
    resnet_block_counts=(1, 1, 1, 1),
    fusion_hidden=32,
)

_PROFILES = {"paper": PAPER, "micro": MICRO}


def get_profile(name: str) -> ScaleProfile:
    return _PROFILES[check(name, "profile", (str,), _PROFILES.__contains__,
                           f"in {sorted(_PROFILES)}")]
