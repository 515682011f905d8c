"""Analysis of classification results: the paper's metrics and reports.

``churn`` stays for a paper-claim test and the alpha ablation bench.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "busy": ("DEFAULT_BUSY_HOURS", "BusyPeriod", "find_busy_period"),
        "churn": ("ChurnReport", "churn_reduction"),
        "elephants": (
            "ElephantSeries",
            "ElephantSeriesBuilder",
            "working_hours_lift",
            "working_hours_mask",
        ),
        "holding": (
            "FIG1C_MAX_SLOTS",
            "HoldingTimeAnalysis",
            "busy_period_result",
            "holding_time_ratio",
        ),
        "offload": (
            "DEFAULT_COOLDOWN_SLOTS",
            "EVICTION_POLICIES",
            "FlowTableSimulator",
            "OffloadReport",
            "OffloadSlot",
            "OffloadSpec",
            "simulate_offload",
        ),
        "prefixes": ("OriginTierReport", "PrefixLengthReport"),
        "report": (
            "format_paper_comparison",
            "format_series_summary",
            "format_table",
        ),
    },
)
