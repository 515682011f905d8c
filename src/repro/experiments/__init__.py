"""Experiment harness: canonical runs, figure builders, text statistics."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "ascii_plot": ("histogram_chart", "line_chart"),
        "config": (
            "DEFAULT_BENCH_SCALE",
            "SCALE_ENV_VAR",
            "ExperimentConfig",
            "bench_config",
            "bench_scale",
        ),
        "figures": ("Figure1a", "Figure1b", "Figure1c"),
        "runner": (
            "LINK_NAMES",
            "PaperRun",
            "cached_paper_run",
            "run_paper_experiment",
        ),
        "textstats": (
            "SingleVsTwoFeature",
            "VolatilityStats",
            "prefix_reports",
            "volatility_grid",
        ),
    },
)
