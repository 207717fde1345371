from .metrics import (
    ConfusionMatrix,
    MetricsError,
    MetricsReport,
    confusion,
    macro_metrics,
    report_from_scores,
    roc_auc,
)
from .report import grouped_bar_svg, roc_svg, write_json, write_metrics_csv
from .stats import (
    ALPHA,
    DegenerateInputError,
    METRIC_NAMES,
    MODEL_PAIRS,
    StatTestResult,
    StatsError,
    bh_fdr,
    compare_models,
    paired_ttest,
    repeated_measures_anova,
)

__all__ = [
    "ConfusionMatrix", "MetricsReport", "MetricsError", "confusion",
    "macro_metrics", "roc_auc", "report_from_scores",
    "StatTestResult", "StatsError", "DegenerateInputError", "paired_ttest",
    "repeated_measures_anova", "bh_fdr", "compare_models",
    "ALPHA", "METRIC_NAMES", "MODEL_PAIRS",
    "write_json", "write_metrics_csv", "roc_svg", "grouped_bar_svg",
]
