"""Statistical machinery: ECDF/LLCD, Hill and aest tail estimators."""

from repro._lazy import attach

# ``aest`` and ``ecdf`` are functions named like the modules that define
# them, and loading a submodule binds it on its package: left lazy, each
# would turn into its module as soon as anything imported that. Bound
# here, after and over the modules, they stay functions (both modules
# are on every classifying path anyway).
from repro.stats.aest import aest
from repro.stats.ecdf import ecdf

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "aest": (
            "AestConfig",
            "AestResult",
            "aest_tail_onset",
            "aggregate_sums",
        ),
        "ecdf": ("ShareCurve", "ccdf", "llcd_points", "quantile"),
        "histogram": (
            "Histogram",
            "integer_histogram",
            "log_spaced_histogram",
        ),
        "tail": (
            "hill_estimator",
            "hill_plot",
            "mass_share_of_top",
            "top_fraction_for_share",
        ),
    },
)
__all__ += ["aest", "ecdf"]
