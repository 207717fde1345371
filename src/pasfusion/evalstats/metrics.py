"""Binary classification metrics: confusion counts, macro-averaged
precision/recall/F1, and trapezoidal ROC-AUC."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts with the positive class = 1 (PAS)."""

    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise MetricsError("confusion counts must be non-negative")
        if self.total == 0:
            raise MetricsError("confusion matrix is empty")


@dataclass
class MetricsReport:
    accuracy: float
    precision: float       # macro
    recall: float          # macro
    f1: float              # macro
    auc: float | None = None
    roc_points: list[tuple[float, float, float]] = field(default_factory=list)

    def as_dict(self) -> dict:
        out = {"accuracy": self.accuracy, "precision": self.precision,
               "recall": self.recall, "f1": self.f1}
        if self.auc is not None:
            out["auc"] = self.auc
        return out


def confusion(labels, predictions) -> ConfusionMatrix:
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    if labels.shape != predictions.shape:
        raise MetricsError(
            f"{labels.shape[0]} labels vs {predictions.shape[0]} predictions")
    for name, arr in (("labels", labels), ("predictions", predictions)):
        if not np.all(np.isin(arr, (0, 1))):
            raise MetricsError(f"{name} must be 0/1")
    return ConfusionMatrix(
        tp=int(np.sum((labels == 1) & (predictions == 1))),
        tn=int(np.sum((labels == 0) & (predictions == 0))),
        fp=int(np.sum((labels == 0) & (predictions == 1))),
        fn=int(np.sum((labels == 1) & (predictions == 0))),
    )


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    # zero-denominator terms are defined as 0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2.0 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return precision, recall, f1


def macro_metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Accuracy plus macro (class-mean) precision/recall/F1 over both classes."""
    p1, r1, f1_1 = _prf(cm.tp, cm.fp, cm.fn)
    p0, r0, f1_0 = _prf(cm.tn, cm.fn, cm.fp)   # class 0 viewed as positive
    return MetricsReport(
        accuracy=(cm.tp + cm.tn) / cm.total,
        precision=(p0 + p1) / 2.0,
        recall=(r0 + r1) / 2.0,
        f1=(f1_0 + f1_1) / 2.0,
    )


def roc_auc(labels, scores) -> tuple[float, list[tuple[float, float, float]]]:
    """AUC by trapezoidal integration over the per-unique-threshold ROC sweep.

    Equals the Mann-Whitney pairwise statistic with ties counted one half.
    """
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise MetricsError("labels and scores differ in length")
    if not np.all(np.isfinite(scores)):
        raise MetricsError("AUC undefined: a score is not finite")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise MetricsError("AUC undefined: both classes must be present")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    points = [(0.0, 0.0, np.inf)]
    tp = fp = 0
    i = 0
    n = len(scores)
    while i < n:
        thr = sorted_scores[i]
        while i < n and sorted_scores[i] == thr:
            if sorted_labels[i] == 1:
                tp += 1
            else:
                fp += 1
            i += 1
        points.append((fp / n_neg, tp / n_pos, float(thr)))

    auc = 0.0
    for (fpr0, tpr0, _), (fpr1, tpr1, _) in zip(points, points[1:]):
        auc += (fpr1 - fpr0) * (tpr0 + tpr1) / 2.0
    return auc, points


def report_from_scores(labels, scores, threshold: float = 0.5) -> MetricsReport:
    """Full report: confusion at ``threshold`` plus ROC/AUC from the scores."""
    labels = np.asarray(labels)
    preds = (np.asarray(scores, dtype=np.float64) >= threshold).astype(int)
    rep = macro_metrics(confusion(labels, preds))
    rep.auc, rep.roc_points = roc_auc(labels, scores)
    return rep
