"""The paper's contribution: elephant classification schemes.

Single-feature (volume) and two-feature (volume + latent heat)
classification over per-prefix bandwidth series, with the "aest" and
"β-constant-load" threshold-detection schemes and EWMA threshold
smoothing.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "alternatives": (
            "CapacityFractionThreshold",
            "MeanPlusStdThreshold",
            "TopKThreshold",
        ),
        "engine": (
            "ClassificationEngine",
            "EngineConfig",
            "Feature",
            "Scheme",
            "make_detector",
        ),
        "latent_heat": (
            "DEFAULT_WINDOW_SLOTS",
            "LatentHeatClassifier",
            "latent_heat_series",
        ),
        "result": ("ClassificationResult",),
        "single_feature": ("SingleFeatureClassifier",),
        "smoothing": (
            "DEFAULT_ALPHA",
            "SlotThreshold",
            "ThresholdSeries",
            "ThresholdTracker",
        ),
        "states": (
            "HoldingTimeSummary",
            "mean_holding_times",
            "run_lengths",
            "total_elephant_slots",
            "transition_counts",
        ),
        "streaming": ("OnlineClassifier", "SlotVerdict"),
        "thresholds": (
            "AestThreshold",
            "ConstantLoadThreshold",
            "QuantileThreshold",
            "ThresholdDetector",
        ),
    },
)
