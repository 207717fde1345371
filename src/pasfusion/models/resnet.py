"""2D ResNet50 feature extractor: stem, four bottleneck stages, global pool."""
from __future__ import annotations

from .. import ndcore as ndc
from ..ndcore import ShapeError, Tensor
from .layers import BatchNorm, CapturePoint, Conv, Module, ModuleList
from .profiles import ScaleProfile


class Bottleneck(Module):
    """1x1 -> 3x3 -> 1x1 conv stack with residual shortcut.

    The first block of a stage uses a projection shortcut h(.) (1x1 conv,
    stride matching the 3x3 conv) to change channels and, in stages 2-4,
    spatial size; the remaining identity blocks add the input unchanged.
    """

    EXPANSION = 4

    def __init__(self, in_ch: int, base: int, stride: int, project: bool):
        super().__init__()
        out_ch = base * self.EXPANSION
        self.conv1 = Conv(in_ch, base, k=1, dims=2)
        self.bn1 = BatchNorm(base)
        self.conv2 = Conv(base, base, k=3, stride=stride, padding=1, dims=2)
        self.bn2 = BatchNorm(base)
        self.conv3 = Conv(base, out_ch, k=1, dims=2)
        self.bn3 = BatchNorm(out_ch)
        if project:
            self.proj = Conv(in_ch, out_ch, k=1, stride=stride, dims=2)
            self.proj_bn = BatchNorm(out_ch)
        else:
            self.proj = None
            if in_ch != out_ch or stride != 1:
                raise ShapeError("identity block cannot change shape")

    def forward(self, x: Tensor) -> Tensor:
        y = ndc.relu(self.bn1(self.conv1(x)))
        y = ndc.relu(self.bn2(self.conv2(y)))
        y = self.bn3(self.conv3(y))
        shortcut = self.proj_bn(self.proj(x)) if self.proj is not None else x
        return ndc.relu(y + shortcut)


class ResNet50Trunk(Module):
    """Image (B, 3, H, W) -> pooled feature vector (B, 32 * stem_channels)."""

    def __init__(self, profile: ScaleProfile):
        super().__init__()
        self.profile = profile
        stem = profile.stem_channels
        self.stem = Conv(3, stem, k=7, stride=2, padding=3, dims=2)
        self.stem_norm = BatchNorm(stem)

        stages = []
        in_ch = stem
        for i, count in enumerate(profile.resnet_block_counts):
            base = stem * (2 ** i)
            stride = 1 if i == 0 else 2
            blocks = [Bottleneck(in_ch, base, stride, project=True)]
            in_ch = base * Bottleneck.EXPANSION
            blocks += [Bottleneck(in_ch, base, 1, project=False)
                       for _ in range(count - 1)]
            stages.append(ModuleList(blocks))
        self.stages = ModuleList(stages)
        self.feature_tap = CapturePoint()
        self.out_features = in_ch

    def forward(self, x: Tensor) -> Tensor:
        expect = (3,) + self.profile.us_input
        if x.shape[1:] != expect:
            raise ShapeError(f"image shape {x.shape[1:]} != expected {expect}")
        y = ndc.relu(self.stem_norm(self.stem(x)))
        y = ndc.maxpool(y, 3, 2, padding=1)
        for stage in self.stages:
            for block in stage:
                y = block(y)
        y = self.feature_tap(y)
        self.last_map_shape = y.shape
        return ndc.global_avgpool(y)

    def cam_target(self) -> CapturePoint:
        """Output map of the final residual stage (post-residual ReLU); the
        raw last 1x1 conv remains reachable via stages[-1][-1].conv3."""
        return self.feature_tap
