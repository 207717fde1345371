"""Statistical comparison suite: paired t-tests, one-way repeated-measures
ANOVA, Benjamini-Hochberg FDR, and the three-model comparison driver.

The t and F tail probabilities are regularized incomplete betas from
``scipy.special`` (``betainc``, or ``betaincc`` of the complement above
x = 1/2); ``scipy.stats`` is not imported.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaincc

ALPHA = 0.05


class StatsError(ValueError):
    pass


class DegenerateInputError(StatsError):
    """Variance structure collapsed (zero-variance differences, zero SS_error)."""


@dataclass
class StatTestResult:
    test: str
    statistic: float
    dof: tuple
    p_value: float
    p_adjusted: float | None = None
    significant: bool | None = None

    def as_dict(self) -> dict:
        return {"test": self.test, "statistic": self.statistic,
                "dof": list(self.dof), "p": self.p_value,
                "p_adjusted": self.p_adjusted, "significant": self.significant}


def _beta_tail(a: float, b: float, num: float, rest: float) -> float:
    """Regularized incomplete beta ``I_x(a, b)`` at ``x = num / (num + rest)``.

    Near ``x = 1`` a rounding of ``x`` moves ``I_x`` by about ``a`` ulps, so
    above one half the complement ``1 - x = rest / (num + rest)`` is the one
    formed and ``I_x(a, b) = betaincc(b, a, 1 - x)``.
    """
    total = num + rest
    if num <= rest:
        return float(betainc(a, b, num / total))
    return float(betaincc(b, a, rest / total))


# -- tests ---------------------------------------------------------------------

def paired_ttest(a, b) -> StatTestResult:
    """Two-sided paired t-test on per-run metric vectors matched by index."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise StatsError("paired t-test needs two equal-length vectors")
    n = a.shape[0]
    if n < 2:
        raise StatsError("paired t-test needs n >= 2")
    d = a - b
    sd = d.std(ddof=1)
    if sd == 0.0:
        raise DegenerateInputError("zero-variance differences")
    t = d.mean() / (sd / math.sqrt(n))
    dof = n - 1
    # two-sided tail: I_x(dof/2, 1/2) with x = dof / (dof + t^2)
    p = _beta_tail(dof / 2.0, 0.5, dof, t * t)
    return StatTestResult("paired_t", float(t), (dof,), p)


def repeated_measures_anova(matrix) -> StatTestResult:
    """One-way within-subjects ANOVA on a (runs x models) matrix."""
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2 or x.shape[1] < 2:
        raise StatsError("need a (>=2 runs) x (>=2 models) matrix")
    n, k = x.shape
    grand = x.mean()
    ss_cond = n * float(((x.mean(axis=0) - grand) ** 2).sum())
    ss_subj = k * float(((x.mean(axis=1) - grand) ** 2).sum())
    ss_total = float(((x - grand) ** 2).sum())
    ss_err = ss_total - ss_cond - ss_subj
    dof = (k - 1, (k - 1) * (n - 1))
    # cancellation guard: treat sums of squares at rounding scale as zero
    tol = 1e-12 * max(ss_total, 1e-30)
    if ss_err <= tol:
        if ss_cond <= tol:
            return StatTestResult("rm_anova", 0.0, dof, 1.0)
        raise DegenerateInputError("SS_error is zero with nonzero condition effect")
    f = (ss_cond / dof[0]) / (ss_err / dof[1])
    # upper tail: I_x(d2/2, d1/2) with x = d2 / (d2 + d1 f)
    p = _beta_tail(dof[1] / 2.0, dof[0] / 2.0, dof[1], dof[0] * f)
    return StatTestResult("rm_anova", float(f), dof, p)


def bh_fdr(p_values) -> np.ndarray:
    """Benjamini-Hochberg step-up adjusted p-values, in the input order."""
    p = np.asarray(p_values, dtype=np.float64)
    if p.size and (p.min() < 0.0 or p.max() > 1.0):
        raise StatsError(f"p-values must lie in [0, 1], got {p}")
    m = p.size
    order = np.argsort(p, kind="stable")
    adjusted = np.empty(m)
    running = 1.0
    for pos in range(m - 1, -1, -1):
        idx = order[pos]
        running = min(running, p[idx] * m / (pos + 1))
        adjusted[idx] = running
    return adjusted


# -- model comparison -----------------------------------------------------------

METRIC_NAMES = ("accuracy", "auc", "precision", "recall", "f1")
MODEL_PAIRS = (("fusion", "mri"), ("fusion", "us"), ("mri", "us"))


def _pairwise_p(a, b) -> tuple[float, float, str]:
    """Paired t p-value with the degenerate cases scored deterministically."""
    try:
        res = paired_ttest(a, b)
        return res.p_value, res.statistic, "paired_t"
    except DegenerateInputError:
        d = float(np.mean(np.asarray(a) - np.asarray(b)))
        return (1.0, 0.0, "degenerate_equal") if d == 0.0 else \
               (0.0, math.inf if d > 0 else -math.inf, "degenerate_consistent")


def compare_models(per_model_metrics: dict[str, list[dict]],
                   alpha: float = ALPHA) -> dict:
    """Per-metric ANOVA gate, then BH-corrected pairwise paired t-tests.

    ``per_model_metrics`` maps model name -> one metrics dict per run.
    Zero-variance structures that the strict tests reject are scored p=0
    (perfectly consistent nonzero effect) or p=1 (no effect), and flagged in
    the metadata so the substitution is visible in reports.
    """
    models = list(per_model_metrics)
    runs = {m: len(v) for m, v in per_model_metrics.items()}
    if len(set(runs.values())) != 1:
        raise StatsError(f"unequal run counts: {runs}")

    table = {}
    notes = []
    for metric in METRIC_NAMES:
        cols = {m: np.array([r[metric] for r in per_model_metrics[m]])
                for m in models}
        matrix = np.stack([cols[m] for m in models], axis=1)
        try:
            gate = repeated_measures_anova(matrix)
        except DegenerateInputError:
            gate = StatTestResult("rm_anova", math.inf,
                                  (len(models) - 1,
                                   (len(models) - 1) * (matrix.shape[0] - 1)), 0.0)
            notes.append(f"{metric}: ANOVA SS_error=0, scored p=0")
        entry = {"anova": gate.as_dict(), "pairwise": {}}
        if gate.p_value < alpha:
            raw = []
            labels = []
            stats = []
            kinds = []
            for left, right in MODEL_PAIRS:
                if left not in cols or right not in cols:
                    continue
                p, stat, kind = _pairwise_p(cols[left], cols[right])
                raw.append(p)
                stats.append(stat)
                kinds.append(kind)
                labels.append(f"{left}_vs_{right}")
                if kind.startswith("degenerate"):
                    notes.append(f"{metric} {left} vs {right}: {kind}, scored p={p}")
            adjusted = bh_fdr(raw)
            for name, p, adj, stat, kind in zip(labels, raw, adjusted, stats, kinds):
                entry["pairwise"][name] = {
                    "test": kind, "statistic": stat, "p": p,
                    "p_adjusted": float(adj),
                    "significant": bool(adj < alpha),
                }
        table[metric] = entry
    return {
        "alpha": alpha,
        "runs": runs[models[0]],
        "models": models,
        "metrics": table,
        "correction": "benjamini-hochberg within each metric family",
        "notes": notes,
    }
