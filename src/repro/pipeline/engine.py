"""Pipeline tail: slot frames → online classification → results.

:class:`StreamingPipeline` drives a slot source through an
:class:`~repro.core.streaming.OnlineClassifier`, growing the classifier
as the source discovers flows, and keeps an incremental
:class:`~repro.analysis.elephants.ElephantSeries` so the paper's
per-slot metrics are available without ever materialising a rate
matrix. Memory is O(flows × window) — the north-star bound for
processing arbitrarily long captures.

:class:`StreamCollector` is the optional batch bridge: it records every
frame and verdict and reassembles the full
:class:`~repro.core.result.ClassificationResult`, padding early slots
with ``False``/zero rows for flows that had not yet appeared — which is
exactly how the batch engine sees them, so collected streaming runs are
bit-identical to batch runs (asserted in the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.analysis.elephants import ElephantSeries, ElephantSeriesBuilder
from repro.core.engine import EngineConfig, Feature, Scheme, make_detector
from repro.core.result import ClassificationResult
from repro.core.smoothing import ThresholdSeries
from repro.core.streaming import OnlineClassifier, SlotVerdict
from repro.errors import ClassificationError
from repro.flows.matrix import RateMatrix
from repro.flows.records import TimeAxis
from repro.net.prefix import Prefix
from repro.pipeline.backends import AggregationBackend, SketchSlotSource
from repro.pipeline.sampling import UNSAMPLED, SamplingSpec
from repro.pipeline.sources import MatrixSlotSource, SlotFrame, SlotSource


@dataclass(frozen=True)
class StreamEvent:
    """One classified slot: the frame that arrived and its verdict."""

    frame: SlotFrame
    verdict: SlotVerdict

    @property
    def elephant_prefixes(self) -> list[Prefix]:
        """The prefixes classified as elephants in this slot."""
        return [
            self.frame.population[i]
            for i in self.verdict.elephants().tolist()
        ]


class StreamingPipeline:
    """source → classifier, one slot at a time, bounded state.

    The classifier is created on the first frame and grown whenever the
    population expands; a grown flow's state is backfilled as if it had
    been an all-zero row from the start, which keeps streaming verdicts
    identical to the batch classifiers'.

    ``backend`` optionally interposes a bounded aggregation backend
    between the source and the classifier (via
    :class:`~repro.pipeline.backends.SketchSlotSource`): frames are
    re-keyed to the backend's capacity-bounded population plus a
    residual row. Use it for slot-level inputs (matrix replays); packet
    inputs should pass the backend to the aggregator instead, where the
    bound applies before any per-flow state exists.

    ``sampling`` (the deployment's
    :class:`~repro.pipeline.sampling.SamplingSpec`) sizes the variance
    guard; the mask itself is applied upstream, at the packet source.
    Frames carry their own ``sample_rate``; the guard only engages on
    frames that declare one above 1.
    """

    def __init__(
        self,
        source: SlotSource,
        scheme: Scheme = Scheme.CONSTANT_LOAD,
        feature: Feature = Feature.LATENT_HEAT,
        config: EngineConfig | None = None,
        backend: AggregationBackend | None = None,
        sampling: SamplingSpec | None = None,
    ) -> None:
        self.sampling = sampling if sampling is not None else UNSAMPLED
        if backend is not None:
            source = SketchSlotSource(source, backend)
        self.source = source
        self.scheme = scheme
        self.feature = feature
        self.config = config or EngineConfig()
        self.config.validate()
        self.classifier: OnlineClassifier | None = None
        detector = make_detector(scheme, beta=self.config.beta)
        self._label = f"{detector.name} {feature.value}"
        self._builder = ElephantSeriesBuilder(
            label=self._label,
            slot_seconds=source.slot_seconds,
        )

    @property
    def label(self) -> str:
        """Run label, e.g. ``"0.8-constant-load latent-heat"``."""
        return self._label

    def events(self) -> Iterator[StreamEvent]:
        """Classify every slot the source produces, in order."""
        for frame in self.source.slots():
            yield self.observe(frame)

    def observe(self, frame: SlotFrame) -> StreamEvent:
        """Classify one frame (push mode).

        The pull path (:meth:`events`) drains ``source.slots()``; push
        mode is for callers that *produce* frames as external events
        happen — the live collector service seals a merged slot when
        every monitor has reported past it, then pushes it here.
        Frames must arrive in slot order, with populations that only
        ever grow; mixing :meth:`observe` and :meth:`events` on one
        pipeline double-classifies slots.
        """
        if self.classifier is None:
            self.classifier = OnlineClassifier(
                make_detector(self.scheme, beta=self.config.beta),
                num_flows=max(1, frame.num_flows),
                alpha=self.config.alpha,
                window=self.config.window,
                use_latent_heat=self.feature is Feature.LATENT_HEAT,
            )
        elif frame.num_flows > self.classifier.num_flows:
            self.classifier.grow(frame.num_flows)
        rates = frame.rates
        if rates.size < self.classifier.num_flows:
            padded = np.zeros(self.classifier.num_flows)
            padded[: rates.size] = rates
            rates = padded
        exclude = (
            np.array([frame.residual_row], dtype=np.int64)
            if frame.residual_row is not None
            else None
        )
        suppress = self._variance_guard(frame, rates)
        verdict = self.classifier.observe_slot(
            rates, exclude_rows=exclude, suppress_rows=suppress
        )
        self._builder.add_slot(
            rates, verdict.elephant_mask, residual_row=frame.residual_row
        )
        return StreamEvent(frame, verdict)

    def _variance_guard(self, frame: SlotFrame, rates: np.ndarray):
        """Rows with too little *sampled* evidence to trust this slot.

        Inverted rates are unbiased but high-variance for thin flows: a
        single lucky sampled packet from a mouse inflates to N packets'
        worth of apparent volume. Undo the inversion to recover the
        bytes actually observed and suppress the verdict for rows below
        the sampling spec's evidence floor (a few packets' worth). Only
        frames that declare ``sample_rate > 1`` are guarded.
        """
        rate = getattr(frame, "sample_rate", 1.0)
        if rate <= 1.0 or self.sampling.evidence_bytes <= 0:
            return None
        observed = rates * self.source.slot_seconds / (8.0 * rate)
        thin = (rates > 0.0) & (observed < self.sampling.evidence_bytes)
        if not thin.any():
            return None
        return np.flatnonzero(thin)

    def series(self) -> ElephantSeries:
        """The incremental Fig. 1(a)/(b) series over the slots seen."""
        return self._builder.build()

    @property
    def slots_seen(self) -> int:
        """Slots classified so far (push or pull)."""
        return self._builder.slots_seen


@dataclass
class StreamCollector:
    """Accumulate stream events back into batch-shaped artefacts.

    Only for callers that want the full result object; a pure streaming
    consumer should iterate events and keep nothing. Rows are padded to
    the final population, so memory is O(flows × slots).
    """

    _masks: list[np.ndarray] = field(default_factory=list)
    _rates: list[np.ndarray] = field(default_factory=list)
    _verdicts: list[SlotVerdict] = field(default_factory=list)
    _last_frame: SlotFrame | None = None
    _first_start: float | None = None

    def add(self, event: StreamEvent) -> None:
        """Record one event (call in slot order)."""
        if self._first_start is None:
            self._first_start = event.frame.start
        self._masks.append(event.verdict.elephant_mask)
        self._rates.append(event.frame.rates)
        self._verdicts.append(event.verdict)
        self._last_frame = event.frame

    def collect(self, events: Iterator[StreamEvent]) -> "StreamCollector":
        """Drain an event stream into this collector; returns self."""
        for event in events:
            self.add(event)
        return self

    @property
    def num_slots(self) -> int:
        """Slots recorded so far."""
        return len(self._masks)

    def matrix(self, slot_seconds: float) -> RateMatrix:
        """The rate matrix the stream traversed, padded to final size."""
        if self._last_frame is None:
            raise ClassificationError("no slots collected")
        prefixes = list(self._last_frame.population)
        if not prefixes:
            raise ClassificationError("stream discovered no flows")
        num_flows = len(prefixes)
        axis = TimeAxis(
            float(self._first_start), slot_seconds, self.num_slots
        )
        rates = np.zeros((num_flows, self.num_slots))
        for slot, column in enumerate(self._rates):
            rates[: column.size, slot] = column
        return RateMatrix(prefixes, axis, rates)

    def result(
        self,
        slot_seconds: float,
        classifier_name: str,
        scheme: str,
        alpha: float,
    ) -> ClassificationResult:
        """Reassemble the batch-identical classification result."""
        matrix = self.matrix(slot_seconds)
        mask = np.zeros((matrix.num_flows, self.num_slots), dtype=bool)
        for slot, column in enumerate(self._masks):
            mask[: column.size, slot] = column
        thresholds = ThresholdSeries.from_slots(
            [v.thresholds for v in self._verdicts],
            scheme=scheme,
            alpha=alpha,
        )
        return ClassificationResult(
            matrix=matrix,
            thresholds=thresholds,
            elephant_mask=mask,
            classifier=classifier_name,
        )


def run_stream(
    source: SlotSource,
    scheme: Scheme = Scheme.CONSTANT_LOAD,
    feature: Feature = Feature.LATENT_HEAT,
    config: EngineConfig | None = None,
    backend: AggregationBackend | None = None,
) -> tuple[ClassificationResult, ElephantSeries]:
    """Run a slot source end to end and collect the batch-shaped result.

    The convenience entry point for "stream it, then analyse it": with
    the default (exact) backend the returned result equals what the
    batch engine computes on the equivalent matrix; with a sketch
    backend the result covers the bounded population plus the residual
    row.
    """
    config = config or EngineConfig()
    pipeline = StreamingPipeline(
        source,
        scheme=scheme,
        feature=feature,
        config=config,
        backend=backend,
    )
    collector = StreamCollector().collect(pipeline.events())
    detector = make_detector(scheme, beta=config.beta)
    result = collector.result(
        source.slot_seconds,
        classifier_name=feature.value,
        scheme=detector.name,
        alpha=config.alpha,
    )
    return result, pipeline.series()


def classify_matrix_streaming(
    matrix: RateMatrix,
    scheme: Scheme = Scheme.CONSTANT_LOAD,
    feature: Feature = Feature.LATENT_HEAT,
    config: EngineConfig | None = None,
    backend: AggregationBackend | None = None,
) -> ClassificationResult:
    """Classify a rate matrix through the streaming path.

    Batch-as-a-wrapper: the matrix replays column by column through the
    online classifier and the verdicts reassemble into the exact result
    the batch engine produces. A sketch ``backend`` bounds the tracked
    population, trading exactness for fixed memory.
    """
    result, _ = run_stream(
        MatrixSlotSource(matrix),
        scheme=scheme,
        feature=feature,
        config=config,
        backend=backend,
    )
    return result
