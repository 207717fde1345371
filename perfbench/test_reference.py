"""Hand-worked cases for the benchmark's reference computations.

Run with ``python3 -m pytest perfbench/test_reference.py`` from the
repository root. Nothing here imports ``pasfusion``.
"""
import math

import numpy as np
import pytest

import reference as ref


def test_confusion_metrics_hand_case():
    # predictions at 0.5: [1, 0, 1, 0, 0] -> tp=1 fn=1 fp=1 tn=2
    m = ref.confusion_metrics([1, 1, 0, 0, 0], [0.9, 0.3, 0.6, 0.2, 0.1])
    assert m["accuracy"] == pytest.approx(3 / 5)
    # class 1: P = R = F1 = 1/2; class 0: P = R = F1 = 2/3
    assert m["precision"] == pytest.approx((1 / 2 + 2 / 3) / 2)
    assert m["recall"] == pytest.approx((1 / 2 + 2 / 3) / 2)
    assert m["f1"] == pytest.approx((1 / 2 + 2 / 3) / 2)


def test_confusion_metrics_zero_denominator_counts_zero():
    # nothing predicted positive: class-1 precision is 0/0 -> 0
    m = ref.confusion_metrics([1, 0, 0, 0], [0.1, 0.2, 0.3, 0.4])
    assert m["accuracy"] == pytest.approx(3 / 4)
    assert m["precision"] == pytest.approx((3 / 4 + 0.0) / 2)
    assert m["recall"] == pytest.approx((1.0 + 0.0) / 2)
    assert m["f1"] == pytest.approx((2 * 0.75 / 1.75 + 0.0) / 2)


def test_threshold_is_inclusive():
    assert ref.confusion_metrics([1], [0.5])["accuracy"] == 1.0


def test_mann_whitney_auc_with_tie():
    # pairs (0.9, 0.8)=1, (0.9, 0.4)=1, (0.4, 0.8)=0, (0.4, 0.4)=1/2
    assert ref.mann_whitney_auc([1, 0, 1, 0], [0.9, 0.8, 0.4, 0.4]) == 0.625


def test_mann_whitney_auc_extremes():
    assert ref.mann_whitney_auc([0, 0, 1, 1], [0.1, 0.2, 0.3, 0.4]) == 1.0
    assert ref.mann_whitney_auc([1, 1, 0, 0], [0.1, 0.2, 0.3, 0.4]) == 0.0
    with pytest.raises(ValueError):
        ref.mann_whitney_auc([1, 1], [0.1, 0.2])


def test_paired_t_p_matches_closed_form_for_two_dof():
    # d = [1, 2, 3]: mean 2, sd 1, t = 2 * sqrt(3); with 2 dof the
    # two-sided tail is 1 - |t| / sqrt(2 + t^2)
    t = 2 * math.sqrt(3)
    expected = 1 - t / math.sqrt(2 + t * t)
    assert ref.paired_t_p([1, 2, 3], [0, 0, 0]) == pytest.approx(expected, rel=1e-12)


def test_paired_t_p_one_dof_is_cauchy():
    # d = [1, 3]: mean 2, sd sqrt(2), t = 2 / (sqrt(2) / sqrt(2)) = 2
    expected = 1 - 2 / math.pi * math.atan(2.0)
    assert ref.paired_t_p([1, 3], [0, 0]) == pytest.approx(expected, rel=1e-12)


def test_paired_t_p_constant_differences_is_none():
    assert ref.paired_t_p([1.0, 2.0], [0.0, 1.0]) is None


def test_rm_anova_hand_case():
    # grand mean 2.5; SS_cond = 2 * (1 + .25 + .25) = 3; SS_subj = 3 * .5 = 1.5;
    # SS_total = 5.5; SS_err = 1; F = (3 / 2) / (1 / 2) = 3 with (2, 2) dof,
    # and for d1 = 2 the F tail is (1 + 2F / d2) ** (-d2 / 2) = 1 / 4
    out = ref.rm_anova([[1, 2, 3], [2, 4, 3]])
    assert out["dof"] == (2, 2)
    assert out["ss_cond"] == pytest.approx(3.0)
    assert out["ss_err"] == pytest.approx(1.0)
    assert out["f"] == pytest.approx(3.0)
    assert out["p"] == pytest.approx(0.25, rel=1e-12)


def test_rm_anova_zero_error_has_no_f():
    # rows differ by a constant: SS_total 5.5 = SS_cond 4 + SS_subj 1.5
    out = ref.rm_anova([[1, 2, 3], [2, 3, 4]])
    assert out["ss_cond"] == 4.0 and out["ss_err"] == 0.0
    assert math.isnan(out["f"]) and math.isnan(out["p"])


def test_bh_adjust_hand_case():
    # ranks: 0.01 (1), 0.03 (2), 0.04 (3); raw p*m/r = 0.03, 0.045, 0.04;
    # step-up minimum from the top gives 0.03, 0.04, 0.04
    adj = ref.bh_adjust([0.01, 0.04, 0.03])
    assert adj == pytest.approx([0.03, 0.04, 0.04])


def test_bh_adjust_caps_at_one():
    assert ref.bh_adjust([0.9, 0.8]) == pytest.approx([0.9, 0.9])
    # raw p*m/r = 1.8, 1.05, 1.0 by rank; the step-up minimum is 1.0 throughout
    assert ref.bh_adjust([1.0, 0.6, 0.7]) == pytest.approx([1.0, 1.0, 1.0])


def test_linear_resize_doubles_with_half_pixel_centres():
    # output centres map to -0.25, 0.25, 0.75, 1.25 in input coordinates
    a, b = 2.0, 6.0
    out = ref.linear_resize(np.array([a, b]), (4,))
    assert out == pytest.approx([a, 0.75 * a + 0.25 * b, 0.25 * a + 0.75 * b, b])


def test_linear_resize_keeps_constants_and_identity():
    x = np.full((3, 5), 0.25)
    assert ref.linear_resize(x, (7, 2)) == pytest.approx(np.full((7, 2), 0.25))
    y = np.arange(12.0).reshape(3, 4)
    assert np.array_equal(ref.linear_resize(y, (3, 4)), y)


def test_class_activation_map_hand_case():
    # two 1x2 channels; class 1 weights (1, -1): cam = relu([3 - 1, 0 - 2]) = [2, 0]
    fmap = np.array([[[3.0, 0.0]], [[1.0, 2.0]]])
    w = np.array([[0.0, 0.0], [1.0, -1.0]])
    cam = ref.class_activation_map(fmap, w, 1, (1, 4))
    # resized [2, 1.5, 0.5, 0] then min-max
    assert cam == pytest.approx(np.array([[1.0, 0.75, 0.25, 0.0]]))


def test_class_activation_map_all_negative_is_zero():
    fmap = np.ones((2, 2, 2))
    w = np.array([[-1.0, -1.0]])
    assert not ref.class_activation_map(fmap, w, 0, (4, 4)).any()


def test_gradcam_of_gap_linear_head_equals_cam():
    """Grad-CAM from finite differences of a GAP-linear head's logit equals CAM."""
    rng = np.random.default_rng(0)
    fmap = rng.normal(size=(4, 3, 3))
    w = rng.normal(size=(2, 4))
    b = rng.normal(size=2)

    def logit(a, c):
        return float(w[c] @ a.mean(axis=(1, 2)) + b[c])

    c, eps = 1, 1e-6
    grad = np.zeros_like(fmap)
    for idx in np.ndindex(fmap.shape):
        up, down = fmap.copy(), fmap.copy()
        up[idx] += eps
        down[idx] -= eps
        grad[idx] = (logit(up, c) - logit(down, c)) / (2 * eps)
    alpha = grad.mean(axis=(1, 2))
    gradcam = np.maximum(np.tensordot(alpha, fmap, axes=(0, 0)), 0.0)
    gradcam = ref.linear_resize(gradcam, (6, 6))
    gradcam = (gradcam - gradcam.min()) / (gradcam.max() - gradcam.min())
    assert ref.class_activation_map(fmap, w, c, (6, 6)) == pytest.approx(gradcam, abs=1e-6)


def test_sigmoid_values_and_saturation():
    assert ref.sigmoid(0.0) == 0.5
    assert ref.sigmoid(math.log(3.0)) == pytest.approx(0.75)
    assert ref.sigmoid(-math.log(3.0)) == pytest.approx(0.25)
    assert np.float32(ref.sigmoid(60.0)) == np.float32(1.0)
    assert np.isfinite(ref.sigmoid(-1000.0))
