"""The classification engine: scheme × classifier orchestration.

Experiments in the paper cross two threshold schemes ("aest",
"0.8-constant-load") with two decision rules (single-feature,
latent-heat). The engine runs any such combination over a rate matrix
and hands back uniformly shaped results keyed by run label.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ClassificationError
from repro.core.latent_heat import DEFAULT_WINDOW_SLOTS, LatentHeatClassifier
from repro.core.result import ClassificationResult
from repro.core.single_feature import SingleFeatureClassifier
from repro.core.smoothing import DEFAULT_ALPHA
from repro.core.thresholds import (
    AestThreshold,
    ConstantLoadThreshold,
    ThresholdDetector,
)
from repro.flows.matrix import RateMatrix


class Scheme(enum.Enum):
    """The paper's two threshold-detection schemes."""

    AEST = "aest"
    CONSTANT_LOAD = "constant-load"


class Feature(enum.Enum):
    """The paper's two decision rules."""

    SINGLE = "single-feature"
    LATENT_HEAT = "latent-heat"


def make_detector(scheme: Scheme, beta: float = 0.8) -> ThresholdDetector:
    """Instantiate the detector for a scheme (β applies to constant load)."""
    if scheme is Scheme.AEST:
        return AestThreshold()
    if scheme is Scheme.CONSTANT_LOAD:
        return ConstantLoadThreshold(beta=beta)
    raise ClassificationError(f"unknown scheme {scheme!r}")


@dataclass
class EngineConfig:
    """Knobs shared by every run the engine performs."""

    alpha: float = DEFAULT_ALPHA
    beta: float = 0.8
    window: int = DEFAULT_WINDOW_SLOTS

    def validate(self) -> None:
        if not 0.0 <= self.alpha < 1.0:
            raise ClassificationError(f"alpha {self.alpha} outside [0, 1)")
        if not 0.0 < self.beta < 1.0:
            raise ClassificationError(f"beta {self.beta} outside (0, 1)")
        if self.window < 1:
            raise ClassificationError(f"window {self.window} must be >= 1")


@dataclass
class ClassificationEngine:
    """Run scheme × feature combinations over one rate matrix."""

    matrix: RateMatrix
    config: EngineConfig = field(default_factory=EngineConfig)

    def __post_init__(self) -> None:
        self.config.validate()

    def run(self, scheme: Scheme, feature: Feature) -> ClassificationResult:
        """Classify with one scheme/feature combination."""
        detector = make_detector(scheme, beta=self.config.beta)
        if feature is Feature.SINGLE:
            classifier = SingleFeatureClassifier(
                detector, alpha=self.config.alpha
            )
        elif feature is Feature.LATENT_HEAT:
            classifier = LatentHeatClassifier(
                detector, alpha=self.config.alpha, window=self.config.window
            )
        else:
            raise ClassificationError(f"unknown feature {feature!r}")
        return classifier.classify(self.matrix)
