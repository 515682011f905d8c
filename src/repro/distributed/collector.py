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

The merged population is a :class:`~repro.net.prefix.PrefixColumns`
and the prefix → row map a :class:`~repro.hash_index.HashIndex` on its
``keys()``: a frame is one ``find``, one ``extend`` for the rows that
are new and one ``bincount``. :func:`elephant_entries` formats the
rows it prints from the two integers, so the collector builds no
``Prefix`` object at all; a caller that reads ``population[row]`` gets
one.

:class:`Collector` is the batch flavour (all runs in hand, merge once,
classify); the live network service in
:mod:`repro.distributed.service` drives the same
:class:`MergedSlotSource` row bookkeeping one sealed slot at a time
through :meth:`MergedSlotSource.frame_of`.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.analysis.elephants import ElephantSeries
from repro.core.engine import EngineConfig, Feature, Scheme
from repro.core.result import ClassificationResult
from repro.core.streaming import SlotVerdict
from repro.distributed.merge import merge_runs
from repro.distributed.summary import SlotSummary
from repro.errors import ClassificationError
from repro.hash_index import ABSENT, HashIndex
from repro.net.prefix import PrefixColumns
from repro.pipeline.backends import RESIDUAL_PREFIX, sum_by_row
from repro.pipeline.engine import StreamEvent, StreamingPipeline, run_stream
from repro.pipeline.sources import SlotFrame


#: Version tag carried by every JSON result envelope. Bump when the
#: envelope's field contract changes shape (adding fields is not a
#: bump; renaming or re-typing them is).
RESULT_SCHEMA = "repro.result/1"


def result_envelope(
    command: str,
    spec: dict[str, object],
    slot_entries: Sequence[list[dict[str, object]]],
    first: int = 0,
    counts: Sequence[int] | None = None,
) -> dict[str, object]:
    """The versioned result envelope every ``--json`` surface shares.

    ``repro stream --json``, ``repro merge --json``, ``repro query
    --json`` (via the live service's reports) and ``repro offload
    --json`` all embed this same structure, built from the same
    :func:`elephant_entries` rows, so any consumer reads one schema
    regardless of which command produced the answer — the contract the
    cross-command regression test locks field for field.

    ``spec`` is the producing command's configuration facts (e.g.
    :meth:`~repro.pipeline.spec.PipelineSpec.describe` output);
    ``slot_entries`` is the per-slot :func:`elephant_entries` lists in
    slot order. The derived ``series`` block is computed here from the
    entries alone, so every producer agrees on it by construction.

    ``first`` and ``counts`` are the live service's partial reply:
    ``elephants_by_slot`` lists the slots from index ``first`` on,
    while ``elephants`` and ``series`` still describe every slot —
    ``series`` from the per-slot entry counts the caller kept as it
    went, when it hands them in, so that nothing here walks the
    history a reader already holds.
    """
    if counts is None:
        counts = [len(slot) for slot in slot_entries]
    return {
        "schema": RESULT_SCHEMA,
        "command": command,
        "spec": dict(spec),
        "elephants": list(slot_entries[-1]) if slot_entries else [],
        "elephants_by_slot": [list(slot) for slot in slot_entries[first:]],
        "series": {
            "num_slots": len(counts),
            "elephants_per_slot": list(counts),
            "mean_elephants_per_slot": (
                sum(counts) / len(counts) if counts else 0.0
            ),
        },
    }


def elephant_entries(
    frame: SlotFrame, verdict: SlotVerdict
) -> list[dict[str, object]]:
    """The canonical serialized elephant set for one classified slot.

    One ``{"prefix": ..., "rate_bps": ...}`` entry per elephant,
    ordered by descending rate then prefix text. This is the single
    serialization point shared by ``repro merge --json`` and the live
    service's ``repro query`` replies, so the two paths answer "which
    flows are elephants right now" with byte-identical JSON for the
    same summaries — the contract the regression tests lock down.

    Rates are rounded to micro-bit/s here, at the one serialization
    point: producers that reach the same slot through different float
    summation orders (a sharded ingest, a merge of per-monitor
    summaries) differ at ~1e-9 relative, and the envelope promises
    field-for-field equality, not equality-up-to-noise.
    """
    rows = verdict.elephants()
    rows = rows[rows != frame.residual_row]
    names = PrefixColumns.take(frame.population, rows).texts()
    entries = [
        {"prefix": name, "rate_bps": round(rate, 6)}
        for name, rate in zip(names, frame.rates[rows].tolist())
    ]
    entries.sort(key=lambda entry: (-entry["rate_bps"], entry["prefix"]))
    return entries


class MergedSlotSource:
    """A slot source over merged summaries, with a live population.

    Rows follow the backend convention: residual row 0 always exists,
    prefixes earn permanent rows in first-appearance order, and each
    frame's rates vector covers the population discovered so far. A
    tracked default route (``0.0.0.0/0``) is folded into the residual
    row rather than duplicated.

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
        self.residual_row = 0
        #: The live population, as columns (frames share it).
        self.prefixes = PrefixColumns.of([RESIDUAL_PREFIX])
        # key → row; 0.0.0.0/0 is in the map too, so a tracked default
        # route folds into the residual row by construction
        self._row_of = HashIndex()
        self._row_of.insert(self.prefixes.keys(), [self.residual_row])

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
        table = summary.prefixes
        keys = table.keys()
        rows = self._row_of.find(keys)
        fresh = np.flatnonzero(rows == ABSENT)
        if fresh.size:
            first = len(self.prefixes)
            rows[fresh] = np.arange(first, first + fresh.size)
            self._row_of.insert(keys[fresh], rows[fresh])
            self.prefixes.extend(table.network[fresh], table.length[fresh])
        rates = sum_by_row(rows, summary.volumes, len(self.prefixes))
        rates[self.residual_row] += summary.residual_bytes
        rates *= 8.0 / self.slot_seconds
        return SlotFrame(
            slot=summary.slot,
            start=summary.start,
            rates=rates,
            population=self.prefixes,
            residual_row=self.residual_row,
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

    def source(self) -> MergedSlotSource:
        """A fresh slot source over the merged summaries."""
        return MergedSlotSource(self.merged)

    def pipeline(self) -> StreamingPipeline:
        """The classifying pipeline (created on first use)."""
        if self._pipeline is None:
            self._pipeline = StreamingPipeline(
                self.source(),
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

    def classify(self) -> tuple[ClassificationResult, ElephantSeries]:
        """Run the merged stream end to end (independent of events())."""
        return run_stream(
            self.source(),
            scheme=self.scheme,
            feature=self.feature,
            config=self.config,
        )


__all__ = [
    "Collector",
    "MergedSlotSource",
    "RESULT_SCHEMA",
    "elephant_entries",
    "result_envelope",
]
