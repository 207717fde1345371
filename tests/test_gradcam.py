"""Grad-CAM analytic cases, normalization invariants and render formats."""
import json

import numpy as np
import pytest

from pasfusion import ndcore as ndc
from pasfusion.gradcam import (
    JET_STOPS,
    GradCamError,
    Heatmap,
    blend_overlay,
    cam_from_capture,
    gradcam,
    jet_ramp,
    render_overlay,
)
from pasfusion.datapipe import PreprocessError, minmax_unit
from pasfusion.datapipe.preprocess import linear_taps, resample
from pasfusion.models import Conv, Module, build_model


class ToyLinearModel(Module):
    """Single-channel conv (identity) followed by a global-mean linear score.

    Score = w * mean(A): the analytic Grad-CAM map is ReLU(w * A) up to the
    shared normalization.
    """

    def __init__(self, w: float):
        super().__init__()
        self.conv = Conv(1, 1, k=1, dims=2)
        self.conv.weight.data = np.ones((1, 1, 1, 1), np.float32)
        self.w = w

    def forward(self, x):
        a = self.conv(x)
        pooled = ndc.global_avgpool(a)
        logits = pooled * self.w
        two = ndc.concat([logits * 0.0, logits], axis=1)
        from pasfusion.models.networks import ModelOutput
        return ModelOutput(pooled, two, ndc.softmax(two))

    def cam_target(self):
        return self.conv


class TestAnalyticCase:
    def test_linear_toy_model_matches_closed_form(self, rng):
        x = rng.normal(size=(6, 5)).astype(np.float32)
        model = ToyLinearModel(w=2.0).finalize_names()
        heat = gradcam(model, (x[None],), class_index=1)
        want = minmax_unit(np.maximum(2.0 * x / x.size, 0.0))
        np.testing.assert_allclose(heat.values, want, atol=1e-6)

    def test_negative_weight_class_flips_map(self, rng):
        x = rng.normal(size=(4, 4)).astype(np.float32)
        model = ToyLinearModel(w=-1.5).finalize_names()
        heat = gradcam(model, (x[None],), class_index=1)
        want = minmax_unit(np.maximum(-1.5 * x / x.size, 0.0))
        np.testing.assert_allclose(heat.values, want, atol=1e-6)

    def test_zero_gradients_give_zero_map(self):
        a = np.ones((3, 4, 4))
        g = np.zeros((3, 4, 4))
        cam = cam_from_capture(a, g, (4, 4))
        np.testing.assert_array_equal(cam, np.zeros((4, 4), np.float32))

    def test_uniform_positive_gradient_proportional_to_activation(self, rng):
        a = np.maximum(rng.normal(size=(1, 5, 5)), 0.0)
        g = np.ones((1, 5, 5))
        cam = cam_from_capture(a, g, (5, 5))
        want = minmax_unit(np.maximum(a[0], 0.0))
        np.testing.assert_allclose(cam, want, atol=1e-7)
        if cam.max() > 0:
            assert cam.max() == 1.0

    def test_non_finite_map_is_rejected(self, rng):
        a = np.abs(rng.normal(size=(2, 4, 4)))
        g = np.ones((2, 4, 4))
        g[1, 2, 3] = np.nan
        with pytest.raises(PreprocessError, match="non-finite"):
            cam_from_capture(a, g, (8, 8))


class TestHeatmapInvariants:
    @pytest.mark.parametrize("kind", ["mri", "us"])
    def test_unit_range_nan_free(self, kind, rng):
        model = build_model(kind, "micro", seed=3)
        if kind == "mri":
            inputs = (rng.random((1, 32, 32, 16)).astype(np.float32),)
        else:
            inputs = (rng.random((3, 56, 56)).astype(np.float32),)
        for class_index in (0, 1):
            heat = gradcam(model, inputs, class_index)
            assert np.all(np.isfinite(heat.values))
            assert heat.values.min() >= 0.0 and heat.values.max() <= 1.0
            if heat.values.max() > 0:
                assert heat.values.max() == 1.0

    def test_fusion_both_branches(self, rng):
        model = build_model("fusion", "micro", seed=3)
        vol = rng.random((1, 32, 32, 16)).astype(np.float32)
        img = rng.random((3, 56, 56)).astype(np.float32)
        targets = model.cam_targets()
        mri_map = gradcam(model, (vol, img), 1, target=targets["mri"])
        us_map = gradcam(model, (vol, img), 1, target=targets["us"])
        assert mri_map.values.shape == (32, 32, 16)
        assert us_map.values.shape == (56, 56)

    def test_invalid_class_index(self, rng):
        model = build_model("us", "micro", seed=0)
        img = rng.random((3, 56, 56)).astype(np.float32)
        from pasfusion.gradcam import GradCamError
        with pytest.raises(GradCamError):
            gradcam(model, (img,), 5)

    def test_fusion_needs_explicit_target(self, rng):
        model = build_model("fusion", "micro", seed=3)
        vol = rng.random((1, 32, 32, 16)).astype(np.float32)
        img = rng.random((3, 56, 56)).astype(np.float32)
        with pytest.raises(GradCamError):
            gradcam(model, (vol, img), 1)

    def test_target_without_spatial_map_rejected(self, rng):
        model = build_model("mri", "micro", seed=3)
        vol = rng.random((1, 32, 32, 16)).astype(np.float32)
        with pytest.raises(GradCamError):
            gradcam(model, (vol,), 1, target=model.fc1)

    def test_upsample_preserves_range(self, rng):
        small = rng.random((4, 4))
        big = resample(small.astype(np.float64), (16, 16), linear_taps)
        assert big.shape == (16, 16)
        assert big.min() >= small.min() - 1e-9
        assert big.max() <= small.max() + 1e-9


def _micro_case(kind, rng):
    """Micro model, one unbatched input tuple and every target ``explain`` maps."""
    model = build_model(kind, "micro", seed=3)
    vol = rng.random((1, 32, 32, 16)).astype(np.float32)
    img = rng.random((3, 56, 56)).astype(np.float32)
    if kind == "fusion":
        return model, (vol, img), list(model.cam_targets().values())
    return model, ((vol,) if kind == "mri" else (img,)), [model.cam_target()]


class TestBackwardScope:
    """A map backpropagates from the class score to its target and no further."""

    @pytest.mark.parametrize("kind", ["mri", "us", "fusion"])
    def test_parameter_gradients_untouched(self, kind, rng):
        model, inputs, targets = _micro_case(kind, rng)
        for target in targets:
            gradcam(model, inputs, 1, target=target)
        for name, p in model.named_parameters():
            assert p.grad is None, name
            assert p.requires_grad, name

    @pytest.mark.parametrize("kind", ["mri", "us", "fusion"])
    def test_repeated_maps_identical(self, kind, rng):
        model, inputs, targets = _micro_case(kind, rng)
        for target in targets:
            first = gradcam(model, inputs, 0, target=target).values
            second = gradcam(model, inputs, 0, target=target).values
            np.testing.assert_array_equal(first, second)

    def test_us_branch_map_leaves_mri_branch_alone(self, rng):
        model, inputs, _ = _micro_case("fusion", rng)
        heat = gradcam(model, inputs, 1, target=model.cam_targets()["us"])
        assert heat.target_layer == "us.feature_tap"
        assert all(p.grad is None for p in model.mri.parameters())

    def test_raw_conv_target(self, rng):
        model, inputs, _ = _micro_case("us", rng)
        model.train()
        conv = model.trunk.stages[-1][-1].conv3
        heat = gradcam(model, inputs, 1, target=conv)
        assert heat.target_layer == f"trunk.stages.{len(model.trunk.stages) - 1}." \
            f"{len(model.trunk.stages[-1]) - 1}.conv3"
        assert heat.values.shape == (56, 56)
        assert np.all(np.isfinite(heat.values))
        assert heat.values.min() >= 0.0 and heat.values.max() <= 1.0
        assert model.training and not conv.capture and conv.captured is None


@pytest.mark.slow
def test_signal_localization_reported(tmp_path):
    """Soft check (reported, not asserted): heatmap mass inside the planted
    signal regions vs outside, averaged over 20 positives; target ratio 1.5.

    The bright-blob image signal is positive evidence and clears the target
    at the first residual stage; the dark-band volume signal is negative
    evidence, which the ReLU in the map formula cannot represent as positive
    mass, so its ratio is reported for the record rather than judged.
    """
    from pasfusion.datapipe import (Volume as Vol, preprocess_mri,
                                    preprocess_us, stratified_split)
    from pasfusion.models.profiles import get_profile
    from pasfusion.synthgen import SynthSpec, generate_dataset, generate_pair
    from pasfusion.trainer import PreprocessCache, TrainConfig, train

    spec = SynthSpec(n_pairs=120, positive_fraction=0.5, profile="micro",
                     mode="redundant", signal_strength=0.6, noise_sigma=0.08,
                     seed=55)
    clean = SynthSpec(n_pairs=120, positive_fraction=0.5, profile="micro",
                      mode="redundant", signal_strength=1e-9,
                      noise_sigma=0.08, seed=55)
    manifest = generate_dataset(spec, tmp_path)
    stratified_split(manifest, (0.7, 0.15, 0.15), seed=55)
    cache = PreprocessCache(get_profile("micro"))

    def ratio_over_positives(model, target, pick, prep, threshold_sign):
        ratios = []
        for i in range(spec.n_pairs):
            raw, label = pick(i)
            if label != 1:
                continue
            ref, _ = pick(i, clean)
            mask = (threshold_sign * (raw - ref)) > 0.2
            if not mask.any():
                continue
            heat = gradcam(model, (prep(raw),), 1, target=target)
            outside = heat.values[~mask].mean()
            if outside > 0:
                ratios.append(heat.values[mask].mean() / outside)
            if len(ratios) >= 20:
                break
        return float(np.mean(ratios)) if ratios else float("nan"), len(ratios)

    us_cfg = TrainConfig(model="us", profile="micro", epochs=6, seed=0,
                         augment=False)
    _, us_model = train(us_cfg, manifest, cache=cache)
    us_ratio, us_n = ratio_over_positives(
        us_model, us_model.trunk.stages[0][-1],
        lambda i, s=spec: (generate_pair(s, i)[1], generate_pair(s, i)[2]),
        lambda img: preprocess_us(img, target=(56, 56)),
        threshold_sign=+1.0)

    mri_cfg = TrainConfig(model="mri", profile="micro", epochs=6, seed=0,
                          augment=False)
    _, mri_model = train(mri_cfg, manifest, cache=cache)
    mri_ratio, mri_n = ratio_over_positives(
        mri_model, mri_model.extractor.dense.blocks[1],
        lambda i, s=spec: (generate_pair(s, i)[0], generate_pair(s, i)[2]),
        lambda vox: preprocess_mri(Vol(voxels=vox), target=(32, 32, 16)).voxels[None],
        threshold_sign=-1.0)

    print(f"\ngradcam localization (soft target >= 1.5): "
          f"us blobs {us_ratio:.2f} over {us_n} positives; "
          f"mri dark bands {mri_ratio:.2f} over {mri_n} positives "
          f"(negative evidence, recorded unjudged)")


class TestRender:
    def test_blend_formula_on_2x2(self):
        src = np.array([[0.0, 1.0], [0.5, 0.25]])
        heat = np.array([[0.0, 1.0], [0.5, 0.0]])
        out = blend_overlay(src, heat)
        ramp = jet_ramp(heat)
        src_rgb = np.repeat(np.clip(np.rint(src * 255), 0, 255)[..., None], 3, -1)
        want = np.clip(np.rint(0.6 * src_rgb + 0.4 * ramp.astype(float)), 0, 255)
        np.testing.assert_array_equal(out, want.astype(np.uint8))

    def test_zero_heatmap_blends_ramp_zero(self):
        src = np.full((3, 3), 0.5)
        out = blend_overlay(src, np.zeros((3, 3)))
        want = 0.6 * 128 + 0.4 * np.array(JET_STOPS[0][1])
        np.testing.assert_array_equal(out[0, 0], np.rint(want).astype(np.uint8))

    def test_jet_ramp_control_points(self):
        for pos, color in JET_STOPS:
            np.testing.assert_array_equal(jet_ramp(np.array([pos]))[0], color)

    def test_volume_render_writes_slices(self, tmp_path, rng):
        heat = Heatmap(values=rng.random((8, 8, 6)).astype(np.float32),
                       target_layer="t", class_index=1, sample_id="p0")
        source = rng.random((8, 8, 6))
        files = render_overlay(heat, source, tmp_path, stem="p0_mri")
        assert len(files["slices"]) == 3
        for entry in files["slices"]:
            pgm = open(entry["source"], "rb").read()
            ppm = open(entry["overlay"], "rb").read()
            header = b"P5\n8 8\n255\n"
            assert pgm.startswith(header) and len(pgm) == len(header) + 64
            assert ppm.startswith(b"P6\n8 8\n255\n") and len(ppm) == len(header) + 192

    def test_image_render_side_by_side(self, tmp_path, rng):
        heat = Heatmap(values=rng.random((6, 6)).astype(np.float32),
                       target_layer="t", class_index=1, sample_id="q")
        files = render_overlay(heat, rng.random((6, 6)), tmp_path, stem="q_us")
        sbs = open(files["side_by_side"], "rb").read()
        assert sbs.startswith(b"P6\n12 6\n255\n")
        index = json.loads(open(files["index"]).read())
        assert index["sample_id"] == "q"
