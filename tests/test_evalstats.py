"""Metric reproduction from the published confusion matrices, AUC/statistics
oracles and the model-comparison driver."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import pasfusion
from pasfusion.evalstats import (
    ConfusionMatrix,
    DegenerateInputError,
    MetricsError,
    bh_fdr,
    compare_models,
    confusion,
    grouped_bar_svg,
    macro_metrics,
    paired_ttest,
    repeated_measures_anova,
    report_from_scores,
    roc_auc,
    roc_svg,
)

from oracles import auc_pairwise, bh_stepup

# best-run confusion matrices: the three printed in the text, plus the two
# Table-5 unimodal matrices recovered uniquely from the published metric rows
PUBLISHED = {
    "mri_unimodal": (ConfusionMatrix(tp=49, tn=144, fp=27, fn=7),
                     dict(accuracy=0.850, precision=0.799, recall=0.859, f1=0.818)),
    "us_unimodal": (ConfusionMatrix(tp=53, tn=123, fp=12, fn=9),
                    dict(accuracy=0.893, precision=0.874, recall=0.883, f1=0.878)),
    "fusion_shared": (ConfusionMatrix(tp=14, tn=23, fp=2, fn=1),
                      dict(accuracy=0.925, precision=0.917, recall=0.927, f1=0.921)),
    "mri_shared": (ConfusionMatrix(tp=12, tn=21, fp=4, fn=3),
                   dict(accuracy=0.825, precision=0.813, recall=0.820, f1=0.816)),
    "us_shared": (ConfusionMatrix(tp=13, tn=22, fp=3, fn=2),
                  dict(accuracy=0.875, precision=0.865, recall=0.873, f1=0.868)),
}


class TestConfusion:
    def test_perfect_predictions(self):
        cm = confusion([0, 1, 0, 1], [0, 1, 0, 1])
        assert cm.fp == 0 and cm.fn == 0 and cm.tp == 2 and cm.tn == 2

    def test_mri_best_run_counts(self):
        labels = [0] * 171 + [1] * 56
        preds = [0] * 144 + [1] * 27 + [1] * 49 + [0] * 7
        cm = confusion(labels, preds)
        assert (cm.tn, cm.fp, cm.tp, cm.fn) == (144, 27, 49, 7)

    def test_fusion_best_run_counts(self):
        labels = [0] * 25 + [1] * 15
        preds = [0] * 23 + [1] * 2 + [1] * 14 + [0] * 1
        cm = confusion(labels, preds)
        assert (cm.tn, cm.fp, cm.tp, cm.fn) == (23, 2, 14, 1)

    def test_length_mismatch(self):
        with pytest.raises(MetricsError):
            confusion([0, 1], [0])

    def test_invalid_value(self):
        with pytest.raises(MetricsError):
            confusion([0, 2], [0, 1])


class TestMacroMetrics:
    @pytest.mark.parametrize("name", sorted(PUBLISHED))
    def test_published_rows_within_tolerance(self, name):
        cm, expected = PUBLISHED[name]
        rep = macro_metrics(cm)
        for metric, want in expected.items():
            assert abs(getattr(rep, metric) - want) <= 1e-3, (name, metric)

    def test_all_correct_gives_ones(self):
        rep = macro_metrics(ConfusionMatrix(tp=5, tn=5, fp=0, fn=0))
        assert rep.accuracy == rep.precision == rep.recall == rep.f1 == 1.0

    def test_zero_denominator_is_zero(self):
        rep = macro_metrics(ConfusionMatrix(tp=0, tn=3, fp=0, fn=2))
        assert 0.0 <= rep.precision <= 1.0


class TestRocAuc:
    def test_perfect_separation(self):
        auc, _ = roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9])
        assert auc == 1.0

    def test_all_ties_is_half(self):
        auc, _ = roc_auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5])
        assert auc == 0.5

    def test_hand_case(self):
        auc, _ = roc_auc([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8])
        assert abs(auc - 0.75) < 1e-12

    def test_single_class_errors(self):
        with pytest.raises(MetricsError):
            roc_auc([1, 1], [0.2, 0.4])

    def test_non_finite_score_rejected(self):
        # a NaN score once stalled the tie loop, so the call runs in a child
        # process under a deadline: a regression fails instead of hanging
        code = ("from pasfusion.evalstats import MetricsError, roc_auc\n"
                "for bad in (float('nan'), float('inf')):\n"
                "    try:\n"
                "        roc_auc([0, 1, 1], [0.2, bad, 0.9])\n"
                "    except MetricsError:\n"
                "        continue\n"
                "    raise SystemExit(f'score {bad} accepted')\n")
        src_root = str(Path(pasfusion.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src_root, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_roc_monotone_in_fpr(self, rng):
        labels = rng.integers(0, 2, size=50)
        labels[:2] = [0, 1]
        scores = rng.random(50)
        _, points = roc_auc(labels, scores)
        fprs = [p[0] for p in points]
        assert fprs == sorted(fprs)
        assert points[0][:2] == (0.0, 0.0) and points[-1][:2] == (1.0, 1.0)

    def test_trapezoid_equals_pairwise_on_100_tied_vectors(self, rng):
        for _ in range(100):
            n = int(rng.integers(6, 30))
            labels = rng.integers(0, 2, size=n)
            labels[:2] = [0, 1]
            scores = np.round(rng.random(n), 1)    # coarse grid forces ties
            auc, _ = roc_auc(labels, scores)
            assert abs(auc - auc_pairwise(labels, scores)) < 1e-9


class TestPairedT:
    def test_identical_vectors_degenerate(self):
        with pytest.raises(DegenerateInputError):
            paired_ttest([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    def test_hand_case(self):
        res = paired_ttest([1, 2, 3, 4, 5], [0, 0, 0, 0, 0])
        assert abs(res.statistic - 4.242640687) < 1e-8
        assert res.dof == (4,)
        assert abs(res.p_value - 0.0132) < 5e-4

    def test_matches_scipy_on_random_draws(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 12))
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            res = paired_ttest(a, b)
            ref = scipy.stats.ttest_rel(a, b)
            assert abs(res.statistic - ref.statistic) < 1e-10
            assert abs(res.p_value - ref.pvalue) < 1e-10

    def test_matches_scipy_to_1e_12_at_large_dof(self, rng):
        # dof 10^5 puts x = dof / (dof + t^2) within 3e-6 of 1, where a
        # rounding of x moves the tail by ~dof/2 ulps
        n = 100_001
        b = rng.normal(size=n)
        d = rng.normal(size=n)
        d += 0.5 * d.std(ddof=1) / np.sqrt(n) - d.mean()      # t = 0.5
        res = paired_ttest(b + d, b)
        ref = scipy.stats.ttest_rel(b + d, b)
        assert abs(res.statistic - 0.5) < 1e-9
        assert abs(res.p_value / ref.pvalue - 1.0) < 1e-12

    def test_run_pairing_is_five(self):
        res = paired_ttest(np.arange(5) + 0.1 * np.arange(5) ** 2, np.arange(5))
        assert res.dof == (4,)


class TestAnova:
    def test_identical_columns_f_zero(self):
        res = repeated_measures_anova([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        assert res.statistic == 0.0 and res.p_value == 1.0

    def test_zero_error_degenerate(self):
        with pytest.raises(DegenerateInputError):
            repeated_measures_anova([[1, 2], [1, 2], [1, 2]])

    def test_hand_decomposition(self):
        # grand=17/6; SS_cond=25/6, SS_subj=19/3, SS_total=65/6 -> SS_err=1/3
        # F = (25/6)/(1/3 / 2)... worked by hand before implementation:
        res = repeated_measures_anova([[1, 2], [2, 4], [3, 5]])
        assert abs(res.statistic - 25.0) < 1e-6
        assert res.dof == (1, 2)
        assert abs(res.p_value - 0.03774955) < 1e-6

    def test_f_equals_t_squared_for_two_models(self, rng):
        for _ in range(20):
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            f_res = repeated_measures_anova(np.stack([a, b], axis=1))
            t_res = paired_ttest(a, b)
            assert abs(f_res.statistic - t_res.statistic ** 2) < 1e-6
            assert abs(f_res.p_value - t_res.p_value) < 1e-9

    def test_matches_scipy_f_distribution(self, rng):
        x = rng.normal(size=(6, 3)) + rng.normal(size=(6, 1))
        res = repeated_measures_anova(x)
        ref_p = scipy.stats.f.sf(res.statistic, *res.dof)
        assert abs(res.p_value - ref_p) < 1e-10

    def test_matches_scipy_to_1e_12_at_large_dof(self, rng):
        x = rng.normal(size=(100_001, 3)) + rng.normal(size=(100_001, 1))
        res = repeated_measures_anova(x)
        assert res.dof == (2, 200_000)
        ref_p = scipy.stats.f.sf(res.statistic, *res.dof)
        assert abs(res.p_value / ref_p - 1.0) < 1e-12


class TestBhFdr:
    def test_single_p_unchanged(self):
        np.testing.assert_allclose(bh_fdr([0.2]), [0.2])

    def test_step_up_case(self):
        np.testing.assert_allclose(bh_fdr([0.01, 0.02, 0.04]), [0.03, 0.03, 0.04])

    def test_monotonicity_enforcement_case(self):
        np.testing.assert_allclose(bh_fdr([0.01, 0.04, 0.03]), [0.03, 0.04, 0.04])

    def test_out_of_range_rejected(self):
        with pytest.raises(Exception):
            bh_fdr([0.5, 1.5])

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_matches_definition_and_dominates_raw(self, pvals):
        adj = bh_fdr(pvals)
        np.testing.assert_allclose(adj, bh_stepup(pvals), atol=1e-12)
        assert np.all(adj >= np.asarray(pvals) - 1e-12)
        assert np.all(adj <= 1.0)

    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8),
           st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_permutation_equivariance(self, pvals, pyrng):
        perm = list(range(len(pvals)))
        pyrng.shuffle(perm)
        base = bh_fdr(pvals)
        permuted = bh_fdr([pvals[i] for i in perm])
        np.testing.assert_allclose(permuted, [base[i] for i in perm], atol=1e-12)


def _runs(base: dict, jitter: float, n: int, seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    return [{k: float(np.clip(v + rng.normal(0, jitter), 0, 1))
             for k, v in base.items()} for _ in range(n)]


class TestCompareModels:
    def test_fifteen_adjusted_pvalues_when_all_gates_open(self):
        fusion = _runs(dict(accuracy=0.93, auc=0.94, precision=0.92,
                            recall=0.93, f1=0.92), 0.01, 5, 1)
        mri = _runs(dict(accuracy=0.80, auc=0.81, precision=0.79,
                         recall=0.80, f1=0.79), 0.01, 5, 2)
        us = _runs(dict(accuracy=0.86, auc=0.86, precision=0.85,
                        recall=0.86, f1=0.85), 0.01, 3 + 2, 3)
        out = compare_models({"fusion": fusion, "mri": mri, "us": us})
        n_pairwise = sum(len(m["pairwise"]) for m in out["metrics"].values())
        assert n_pairwise == 15
        assert out["metrics"]["accuracy"]["pairwise"]["fusion_vs_mri"]["significant"]

    def test_identical_models_no_flags(self):
        rows = _runs(dict(accuracy=0.9, auc=0.9, precision=0.9, recall=0.9,
                          f1=0.9), 0.02, 5, 7)
        out = compare_models({"fusion": rows, "mri": rows, "us": rows})
        for metric in out["metrics"].values():
            assert metric["pairwise"] == {}
            assert metric["anova"]["p"] == 1.0

    def test_posthoc_gated_by_anova(self):
        # overlapping noisy models: gate should stay closed for some metric
        a = _runs(dict(accuracy=0.85, auc=0.85, precision=0.85, recall=0.85,
                       f1=0.85), 0.05, 5, 11)
        b = _runs(dict(accuracy=0.85, auc=0.85, precision=0.85, recall=0.85,
                       f1=0.85), 0.05, 5, 12)
        c = _runs(dict(accuracy=0.85, auc=0.85, precision=0.85, recall=0.85,
                       f1=0.85), 0.05, 5, 13)
        out = compare_models({"fusion": a, "mri": b, "us": c})
        for metric, entry in out["metrics"].items():
            if entry["anova"]["p"] >= 0.05:
                assert entry["pairwise"] == {}

    def test_degenerate_consistent_difference_is_significant(self):
        fusion = [dict(accuracy=0.95, auc=0.95, precision=0.95, recall=0.95,
                       f1=0.95)] * 5
        mri = [dict(accuracy=0.75, auc=0.75, precision=0.75, recall=0.75,
                    f1=0.75)] * 5
        us = [dict(accuracy=0.80, auc=0.80, precision=0.80, recall=0.80,
                   f1=0.80)] * 5
        out = compare_models({"fusion": fusion, "mri": mri, "us": us})
        acc = out["metrics"]["accuracy"]
        assert acc["pairwise"]["fusion_vs_mri"]["significant"]
        assert out["notes"]

    def test_unequal_run_counts_rejected(self):
        with pytest.raises(Exception):
            compare_models({"fusion": _runs(dict(accuracy=1, auc=1, precision=1,
                                                 recall=1, f1=1), 0, 3, 0),
                            "mri": _runs(dict(accuracy=1, auc=1, precision=1,
                                              recall=1, f1=1), 0, 4, 0)})


class TestReportHelpers:
    def test_report_from_scores(self):
        labels = [0, 0, 1, 1]
        scores = [0.2, 0.6, 0.7, 0.9]
        rep = report_from_scores(labels, scores)
        assert rep.accuracy == 0.75
        assert rep.auc == 1.0

    def test_svg_outputs_are_wellformed(self):
        import xml.etree.ElementTree as ET
        _, pts = roc_auc([0, 1, 0, 1], [0.1, 0.9, 0.4, 0.6])
        svg = roc_svg({"demo": pts})
        ET.fromstring(svg)
        svg2 = grouped_bar_svg(["accuracy", "auc"],
                               {"fusion": [0.9, 0.92], "mri": [0.8, 0.81]})
        ET.fromstring(svg2)
