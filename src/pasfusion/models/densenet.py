"""3D densely-connected feature extractor branch.

Topology: stem conv(k=7, s=2, p=3) -> BN -> ReLU -> maxpool(3, 2, p=1), four
dense blocks separated by three compressing transitions, then BN -> ReLU ->
global average pool -> linear+ReLU embedding.
"""
from __future__ import annotations

from .. import ndcore as ndc
from ..ndcore import ShapeError, Tensor
from .layers import BatchNorm, CapturePoint, Conv, Linear, Module, ModuleList
from .profiles import ScaleProfile


class DenseLayer(Module):
    """BN -> ReLU -> 1x1x1 conv (to 4k) -> BN -> ReLU -> 3x3x3 conv (to k)."""

    def __init__(self, in_ch: int, growth: int):
        super().__init__()
        bottleneck = 4 * growth
        self.norm1 = BatchNorm(in_ch)
        self.conv1 = Conv(in_ch, bottleneck, k=1, dims=3)
        self.norm2 = BatchNorm(bottleneck)
        self.conv2 = Conv(bottleneck, growth, k=3, padding=1, dims=3)

    def forward(self, x: Tensor) -> Tensor:
        y = self.conv1(ndc.relu(self.norm1(x)))
        return self.conv2(ndc.relu(self.norm2(y)))


class DenseBlock(Module):
    """Each layer consumes the concatenation of the input and all prior outputs."""

    def __init__(self, in_ch: int, n_layers: int, growth: int):
        super().__init__()
        self.layers = ModuleList(
            DenseLayer(in_ch + i * growth, growth) for i in range(n_layers))
        self.out_channels = in_ch + n_layers * growth

    def forward(self, x: Tensor) -> Tensor:
        feats = x
        for layer in self.layers:
            new = layer(feats)
            feats = ndc.concat([feats, new], axis=1)
        return feats


class Transition(Module):
    """BN -> ReLU -> channel-halving 1x1x1 conv -> 2x2x2 avgpool stride 2."""

    def __init__(self, in_ch: int):
        super().__init__()
        if in_ch % 2:
            raise ShapeError(f"transition needs an even channel count, got {in_ch}")
        self.norm = BatchNorm(in_ch)
        self.conv = Conv(in_ch, in_ch // 2, k=1, dims=3)

    def forward(self, x: Tensor) -> Tensor:
        y = self.conv(ndc.relu(self.norm(x)))
        return ndc.avgpool(y, 2, 2)


class DenseNet3dBranch(Module):
    """Volume (B, 1, H, W, D) -> local feature embedding (B, dense_feature)."""

    def __init__(self, profile: ScaleProfile):
        super().__init__()
        self.profile = profile
        self.stem = Conv(1, profile.stem_channels, k=7, stride=2, padding=3, dims=3)
        self.stem_norm = BatchNorm(profile.stem_channels)

        ch = profile.stem_channels
        blocks, transitions = [], []
        for i, n_layers in enumerate(profile.dense_block_layers):
            block = DenseBlock(ch, n_layers, profile.growth_rate)
            blocks.append(block)
            ch = block.out_channels
            if i < len(profile.dense_block_layers) - 1:
                transitions.append(Transition(ch))
                ch //= 2
        self.blocks = ModuleList(blocks)
        self.transitions = ModuleList(transitions)
        self.final_channels = ch
        self.final_norm = BatchNorm(ch)
        self.feature_tap = CapturePoint()
        self.fc = Linear(ch, profile.dense_feature)

    def forward(self, x: Tensor) -> Tensor:
        expect = (1,) + self.profile.mri_input
        if x.shape[1:] != expect:
            raise ShapeError(f"volume shape {x.shape[1:]} != expected {expect}")
        y = ndc.relu(self.stem_norm(self.stem(x)))
        y = ndc.maxpool(y, 3, 2, padding=1)
        for i, block in enumerate(self.blocks):
            y = block(y)
            if i < len(self.transitions):
                y = self.transitions[i](y)
        y = self.feature_tap(ndc.relu(self.final_norm(y)))
        flat = ndc.global_avgpool(y)
        return ndc.relu(self.fc(flat))

    def cam_target(self) -> CapturePoint:
        """Post-activation map of the final dense stage (the last composite
        convolutional layer's output); the raw last 3x3x3 conv remains
        reachable via blocks[-1].layers[-1].conv2 for callers that want it."""
        return self.feature_tap
