"""The collector: merged monitor summaries → online classification.

A fleet of monitors each sees part of a link (one shard of its flows,
one tap in a load-balanced bundle, one link of a multi-link site) and
exports per-slot :class:`~repro.distributed.summary.SlotSummary`
records. The collector merges those into one link-wide slot stream and
feeds it to the *existing*
:class:`~repro.core.streaming.OnlineClassifier` through the standard
:class:`~repro.pipeline.engine.StreamingPipeline` — classification
neither knows nor cares that the slots were stitched together.

This is the partial-information regime: a merged, re-truncated summary
under-represents small flows, so every merged frame carries residual
row 0 (conserving the unseen mass) and the classifier excludes it from
elephant verdicts, exactly as it does for single-monitor sketch runs.

The merged population is a :class:`~repro.pipeline.backends.Population`,
the prefix → row map every backend holds: a frame is one
:meth:`~repro.pipeline.backends.Population.rows` lookup and one
``bincount``, and a real default route (``0.0.0.0/0``) earns a row of
its own, as it does under ``repro stream``.
:func:`~repro.distributed.envelope.elephant_entries` formats the rows
it prints from the two integers, so the collector builds no ``Prefix``
object at all; a caller that reads ``population[row]`` gets one.

:class:`Collector` is the batch flavour: it merges all runs at once
through :func:`~repro.distributed.merge.merge_runs`, the
:class:`~repro.distributed.merge.LinkMerge` a live link seals through,
and classifies. The live service pushes each slot its link seals
through the same :meth:`MergedSlotSource.frame_of` row bookkeeping.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.analysis.elephants import ElephantSeries
from repro.core.engine import EngineConfig, Feature, Scheme
from repro.distributed.merge import merge_runs
from repro.distributed.summary import SlotSummary
from repro.errors import ClassificationError
from repro.pipeline.backends import Population, sum_by_row
from repro.pipeline.engine import StreamEvent, StreamingPipeline
from repro.pipeline.sources import SlotFrame


class MergedSlotSource:
    """A slot source over merged summaries, with a live population.

    Rows follow the backend convention: residual row 0 always exists,
    prefixes earn permanent rows in first-appearance order, and each
    frame's rates vector covers the population discovered so far.

    Construction takes either a non-empty merged run (the batch path:
    :meth:`slots` replays it) or an explicit ``slot_seconds`` with no
    summaries yet (the live path: the collector service pushes sealed
    slots through :meth:`frame_of` as they happen, and the row
    bookkeeping persists across calls).
    """

    def __init__(
        self,
        merged: Sequence[SlotSummary],
        slot_seconds: float | None = None,
    ) -> None:
        merged = list(merged)
        if not merged and slot_seconds is None:
            raise ClassificationError("no merged slots to stream")
        self.merged = merged
        self.slot_seconds = merged[0].slot_seconds if merged else slot_seconds
        self.population = Population(residual_row=0)
        #: The live population, as columns (frames share it).
        self.prefixes = self.population.prefixes

    def frame_of(self, summary: SlotSummary) -> SlotFrame:
        """The next slot frame, growing the population as needed.

        Call in slot order; rows assigned to prefixes are permanent,
        so frames produced across calls share one coordinate system.
        """
        if summary.slot_seconds != self.slot_seconds:
            raise ClassificationError(
                f"summary on a {summary.slot_seconds}s grid pushed "
                f"into a {self.slot_seconds}s source"
            )
        rows = self.population.rows(summary.prefixes)
        rates = sum_by_row(rows, summary.volumes, len(self.prefixes))
        rates[0] += summary.residual_bytes
        rates *= 8.0 / self.slot_seconds
        return SlotFrame(
            slot=summary.slot,
            start=summary.start,
            rates=rates,
            population=self.prefixes,
            residual_row=0,
            sample_rate=summary.sample_rate,
        )

    def slots(self) -> Iterator[SlotFrame]:
        for summary in self.merged:
            yield self.frame_of(summary)


class Collector:
    """Merge monitor runs and classify the stitched link.

    ``runs`` is one sequence of slot summaries per monitor; ``k``
    bounds the merged table per slot (the multi-monitor analogue of a
    sketch capacity). ``fill_gaps`` interpolates empty merged slots
    for intervals no monitor covered, giving the classifier the same
    contiguous slot sequence a single monitor emits. The collector
    merges eagerly — merge errors (and clock-skew warnings, recorded
    in :attr:`skew_estimate`) surface at construction, not mid-stream.
    """

    def __init__(
        self,
        runs: Sequence[Sequence[SlotSummary]],
        k: int | None = None,
        scheme: Scheme = Scheme.CONSTANT_LOAD,
        feature: Feature = Feature.LATENT_HEAT,
        config: EngineConfig | None = None,
        fill_gaps: bool = False,
        check_skew: bool = True,
    ) -> None:
        self.merged = merge_runs(
            runs, k=k, fill_gaps=fill_gaps, check_skew=check_skew
        )
        #: Collector-side clock-skew estimate per monitor run (seconds).
        self.skew_estimate = self.merged.skew_estimate
        self.num_monitors = len(runs)
        self.k = k
        self.scheme = scheme
        self.feature = feature
        self.config = config or EngineConfig()
        self._pipeline: StreamingPipeline | None = None

    @property
    def num_slots(self) -> int:
        """Merged slots awaiting (or consumed by) classification."""
        return len(self.merged)

    def pipeline(self) -> StreamingPipeline:
        """The classifying pipeline (created on first use)."""
        if self._pipeline is None:
            self._pipeline = StreamingPipeline(
                MergedSlotSource(self.merged),
                scheme=self.scheme,
                feature=self.feature,
                config=self.config,
            )
        return self._pipeline

    def events(self) -> Iterator[StreamEvent]:
        """Classify the merged slots, one event per slot."""
        return self.pipeline().events()

    def series(self) -> ElephantSeries:
        """The per-slot elephant series over the events consumed."""
        return self.pipeline().series()


__all__ = ["Collector", "MergedSlotSource"]
