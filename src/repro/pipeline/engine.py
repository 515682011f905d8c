"""Pipeline tail: slot frames → online classification → results.

:class:`StreamingPipeline` drives a slot source through an
:class:`~repro.core.streaming.OnlineClassifier`, growing the classifier
as the source discovers flows, and keeps an incremental
:class:`~repro.analysis.elephants.ElephantSeries` so the paper's
per-slot metrics are available without ever materialising a rate
matrix. Memory is O(flows × window) — the north-star bound for
processing arbitrarily long captures.

The batch :class:`~repro.core.engine.ClassificationEngine` is the
other classifier: it runs over a whole matrix, and the suite holds
every event this pipeline emits to that engine's column for the same
slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.analysis.elephants import ElephantSeries, ElephantSeriesBuilder
from repro.core.engine import EngineConfig, Feature, Scheme, make_detector
from repro.core.streaming import OnlineClassifier, SlotVerdict
from repro.net.prefix import Prefix
from repro.pipeline.sampling import EVIDENCE_BYTES, UNSAMPLED, SamplingSpec
from repro.pipeline.sources import SlotFrame, SlotSource


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

    A bounded table's frames come from the source: a packet input's
    aggregator holds the backend, and a matrix replay is wrapped in a
    :class:`~repro.pipeline.backends.SketchSlotSource`.

    ``sampling`` (the deployment's
    :class:`~repro.pipeline.sampling.SamplingSpec`) is kept as
    :attr:`sampling`; the mask itself is applied upstream, at the packet
    source. Frames carry their own ``sample_rate``, and the variance
    guard (the fixed floor
    :data:`~repro.pipeline.sampling.EVIDENCE_BYTES`) only engages on
    frames that declare one above 1.
    """

    def __init__(
        self,
        source: SlotSource,
        scheme: Scheme = Scheme.CONSTANT_LOAD,
        feature: Feature = Feature.LATENT_HEAT,
        config: EngineConfig | None = None,
        sampling: SamplingSpec | None = None,
    ) -> None:
        self.sampling = sampling if sampling is not None else UNSAMPLED
        self.source = source
        self.scheme = scheme
        self.feature = feature
        self.config = config or EngineConfig()
        self.config.validate()
        self.classifier: OnlineClassifier | None = None
        #: Slots whose cut fell below the table's tracked flows.
        self.below_table_slots: list[int] = []
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
        suppress = self._variance_guard(frame, rates)
        verdict = self.classifier.observe_slot(
            rates, residual_row=frame.residual_row, suppress_rows=suppress
        )
        if verdict.thresholds.below_table:
            self.below_table_slots.append(verdict.slot)
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
        the evidence floor (:data:`~repro.pipeline.sampling.EVIDENCE_BYTES`,
        a few packets' worth). Only frames that declare
        ``sample_rate > 1`` are guarded.
        """
        rate = getattr(frame, "sample_rate", 1.0)
        if rate <= 1.0:
            return None
        observed = rates * self.source.slot_seconds / (8.0 * rate)
        thin = (rates > 0.0) & (observed < EVIDENCE_BYTES)
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
