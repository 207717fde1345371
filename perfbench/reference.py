"""Reference computations for the benchmark's output checks.

Written from the textbook definitions, with no ``pasfusion`` import, so a
check never compares the program with itself:

- confusion-matrix metrics (accuracy, macro precision/recall/F1);
- AUC as the Mann-Whitney pairwise statistic, ties counted one half;
- p-values of the paired t-test and the repeated-measures ANOVA F test,
  taken from ``scipy.stats``, and Benjamini-Hochberg adjusted p-values;
- the class-activation map of a global-average-pooled linear head, to which
  Grad-CAM reduces (Zhou et al., arXiv:1512.04150): upsampled with
  half-pixel-centred linear interpolation and min-max normalised.
"""
from __future__ import annotations

import numpy as np
from scipy import stats


def confusion_metrics(labels, scores, threshold: float = 0.5) -> dict:
    """Accuracy and macro precision/recall/F1 of ``scores >= threshold``.

    A ratio with a zero denominator counts as 0.
    """
    labels = np.asarray(labels, dtype=np.int64)
    preds = (np.asarray(scores, dtype=np.float64) >= threshold).astype(np.int64)
    per_class = []
    for cls in (0, 1):
        tp = int(np.sum((preds == cls) & (labels == cls)))
        fp = int(np.sum((preds == cls) & (labels != cls)))
        fn = int(np.sum((preds != cls) & (labels == cls)))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append((precision, recall, f1))
    return {
        "accuracy": float(np.mean(preds == labels)),
        "precision": (per_class[0][0] + per_class[1][0]) / 2,
        "recall": (per_class[0][1] + per_class[1][1]) / 2,
        "f1": (per_class[0][2] + per_class[1][2]) / 2,
    }


def mann_whitney_auc(labels, scores) -> float:
    """Share of (positive, negative) pairs ranked correctly, ties one half."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[labels == 1][:, None]
    neg = scores[labels == 0][None, :]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("AUC needs both classes")
    wins = np.sum(pos > neg) + 0.5 * np.sum(pos == neg)
    return float(wins / (pos.size * neg.size))


def paired_t_p(a, b) -> float | None:
    """Two-sided paired t-test p-value; None when the differences are constant."""
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    if np.all(d == d[0]):
        return None
    return float(stats.ttest_rel(a, b).pvalue)


def rm_anova(matrix) -> dict:
    """One-way repeated-measures ANOVA on a (subjects x conditions) matrix.

    Returns the sums of squares, the degrees of freedom, F and its p-value;
    F and p are NaN when SS_error is not positive.
    """
    x = np.asarray(matrix, dtype=np.float64)
    n, k = x.shape
    grand = x.mean()
    ss_cond = n * float(np.sum((x.mean(axis=0) - grand) ** 2))
    ss_subj = k * float(np.sum((x.mean(axis=1) - grand) ** 2))
    ss_total = float(np.sum((x - grand) ** 2))
    ss_err = ss_total - ss_cond - ss_subj
    dof = (k - 1, (k - 1) * (n - 1))
    f = p = float("nan")
    if ss_err > 0.0:
        f = (ss_cond / dof[0]) / (ss_err / dof[1])
        p = float(stats.f.sf(f, *dof))
    return {"f": f, "p": p, "dof": dof, "ss_cond": ss_cond,
            "ss_err": ss_err, "ss_total": ss_total}


def bh_adjust(p_values) -> np.ndarray:
    """Benjamini-Hochberg adjusted p-values, in the input order.

    adjusted(i) = min over ranks r >= rank(i) of p_(r) * m / r, capped at 1.
    """
    p = np.asarray(p_values, dtype=np.float64)
    m = p.size
    order = np.argsort(p, kind="stable")
    ranked = p[order] * m / np.arange(1, m + 1)
    ranked = np.minimum.accumulate(ranked[::-1])[::-1]
    out = np.empty(m)
    out[order] = np.minimum(ranked, 1.0)
    return out


def linear_resize(arr: np.ndarray, extents) -> np.ndarray:
    """Separable linear resize with half-pixel centres and clamped edges."""
    out = np.asarray(arr, dtype=np.float64)
    for axis, n_out in enumerate(extents):
        n_in = out.shape[axis]
        if n_in == n_out:
            continue
        pos = (np.arange(n_out) + 0.5) * n_in / n_out - 0.5
        lo = np.floor(pos).astype(np.int64)
        frac = pos - lo
        a = np.take(out, np.clip(lo, 0, n_in - 1), axis=axis)
        b = np.take(out, np.clip(lo + 1, 0, n_in - 1), axis=axis)
        shape = [1] * out.ndim
        shape[axis] = n_out
        frac = frac.reshape(shape)
        out = a * (1.0 - frac) + b * frac
    return out


def class_activation_map(feature_map: np.ndarray, weights: np.ndarray,
                         class_index: int, extents) -> np.ndarray:
    """CAM of a GAP-linear head: ReLU(sum_k w[c, k] A_k), resized, min-max.

    ``feature_map`` is (K, *spatial) and ``weights`` is (classes, K). A map
    that is zero everywhere stays zero.
    """
    cam = np.tensordot(np.asarray(weights, np.float64)[class_index],
                       np.asarray(feature_map, np.float64), axes=(0, 0))
    cam = linear_resize(np.maximum(cam, 0.0), extents)
    lo, hi = cam.min(), cam.max()
    if hi <= 0.0 or hi == lo:
        return np.zeros_like(cam)
    return (cam - lo) / (hi - lo)


def sigmoid(x) -> np.ndarray:
    """Logistic function in float64, stable for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
