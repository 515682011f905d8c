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

    def run_all(
        self, features: tuple[Feature, ...] = (Feature.LATENT_HEAT,)
    ) -> dict[str, ClassificationResult]:
        """Run both schemes for the requested features, keyed by label."""
        results: dict[str, ClassificationResult] = {}
        for scheme in Scheme:
            for feature in features:
                result = self.run(scheme, feature)
                results[result.label] = result
        return results

    def run_streaming(
        self, scheme: Scheme, feature: Feature, spec=None
    ) -> ClassificationResult:
        """Classify through the streaming pipeline instead of in batch.

        The matrix replays column by column through the online
        classifier; the reassembled result is identical to :meth:`run`
        (asserted in the test suite). This is the batch-as-a-wrapper
        entry point — useful when validating streaming deployments
        against recorded matrices.

        ``spec`` (a :class:`~repro.pipeline.spec.PipelineSpec`)
        describes the deployment to validate. A sketch backend replays
        the matrix under that backend's memory bound: the result covers
        the tracked population plus a residual row, so it approximates
        :meth:`run` with O(capacity) flow state.

        ``spec.workers > 1`` replays the matrix through *true
        multi-process ingestion*: every active cell becomes a synthetic
        packet, the reader deals rows to the shard processes, and the
        merged summaries classify at the collector. The result covers
        the merged population (active flows, first-appearance order,
        plus residual row 0) rather than the matrix's row order — same
        elephants, different shape — so it validates the distributed
        deployment, not byte-identity.
        """
        # Imported here: repro.pipeline sits above the core layer.
        from repro.pipeline.engine import classify_matrix_streaming

        backend = None
        if spec is not None:
            if spec.source is not None:
                raise ClassificationError(
                    "run_streaming replays this engine's matrix; a "
                    "spec with source= belongs to the packet entry "
                    "points (spec.open_source, parallel_ingest)"
                )
            if spec.workers > 1:
                return self._run_parallel(scheme, feature, spec)
            backend = spec.build_backend()
        return classify_matrix_streaming(
            self.matrix,
            scheme=scheme,
            feature=feature,
            config=self.config,
            backend=backend,
        )

    def _run_parallel(
        self, scheme: Scheme, feature: Feature, spec
    ) -> ClassificationResult:
        """Replay the matrix as packets through the worker fleet."""
        import math

        import numpy as np

        from repro.distributed.runner import RowResolver, parallel_ingest
        from repro.distributed.summary import SlotSummary
        from repro.pipeline.sources import ArrayPacketSource

        axis = self.matrix.axis
        seconds = axis.slot_seconds
        # The summary merge bins slots by absolute grid cell, so the
        # fleet's grid must anchor at a multiple of slot_seconds. An
        # axis that starts off-grid is snapped down to the grid and
        # packets are stamped at their slot's *start* (axis.start +
        # slot * seconds), which lands in grid cell `anchor_cell +
        # slot` for any in-slot offset — the verdicts are unaffected,
        # only the replayed clock shifts by under one slot.
        anchor = math.floor(axis.start / seconds) * seconds
        # Column-major nonzero walk: one packet per active cell.
        slots, rows = np.nonzero(self.matrix.rates.T)
        timestamps = axis.start + slots * seconds
        volumes = self.matrix.rates[rows, slots] * seconds / 8.0
        ingest = parallel_ingest(
            ArrayPacketSource(timestamps, rows, volumes),
            RowResolver(self.matrix.prefixes),
            spec=spec,
            slot_seconds=seconds,
            start=float(anchor),
        )
        # Workers only summarize slots that carried packets, but the
        # axis is authoritative here: idle leading/trailing slots (and
        # a fully idle matrix) must still classify, exactly as they do
        # in batch and workers=1 replays. One synthetic monitor run
        # covering the axis endpoints pins the merged span; fill_gaps
        # interpolates everything between.
        span = [
            SlotSummary(
                slot=slot,
                start=anchor + slot * seconds,
                slot_seconds=seconds,
                prefixes=(),
                volumes=np.zeros(0),
                monitor="axis",
            )
            for slot in sorted({0, axis.num_slots - 1})
        ]
        ingest.runs.append(span)
        result, _ = ingest.collector(
            scheme=scheme, feature=feature, config=self.config
        ).classify()
        return result

    def run_paper_grid(self) -> dict[str, ClassificationResult]:
        """The full 2×2 grid the paper's evaluation uses."""
        return self.run_all(features=(Feature.SINGLE, Feature.LATENT_HEAT))
