"""Streaming aggregation: packet batches → completed slot frames.

This is the pipeline's middle stage. It consumes the columnar batches a
:class:`~repro.pipeline.sources.PacketSource` produces and emits one
:class:`~repro.pipeline.sources.SlotFrame` per measurement slot, as
soon as the slot is known to be complete (i.e. a later packet arrives).
Unlike the per-packet reference
:class:`~repro.flows.aggregate.FlowAggregator` it needs no time axis up
front and no fixed flow population, and it carries bytes per slot only
— no per-flow packet ledger. Batch aggregation
(:func:`~repro.flows.aggregate.aggregate_pcap`) is a thin wrapper over
this class:

- the axis grows forward from the first packet's slot (aligned to the
  ``slot_seconds`` grid), one slot at a time, for as long as the
  capture runs;
- flows are discovered from the traffic, through a pluggable
  :class:`~repro.pipeline.backends.AggregationBackend`. The default
  exact backend gives every prefix its own permanent row the first
  time it carries bytes; sketch backends bound the tracked table at a
  fixed capacity and conserve untracked bytes in a residual row, with
  the array tables running the per-batch accounting as vectorized
  kernels end to end.

State is one open slot's accounting plus the backend's flow table —
O(flows) for exact, O(capacity) *tracked* state for sketches. Sketch
rows are permanent once earned, so the emitted population still grows
with candidate churn across slot boundaries (row compaction is a
ROADMAP item); the bounded part is the sketch and the per-slot
candidate table. Packets must arrive in non-decreasing slot order
(pcap files are chronological); a packet for an already-emitted slot is
counted in ``stats.packets_outside_axis`` and dropped, which is what a
one-pass monitor has to do.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, Protocol

import numpy as np

from repro.errors import ClassificationError
from repro.flows.aggregate import AggregationStats
from repro.flows.records import DEFAULT_SLOT_SECONDS, TimeAxis
from repro.net.prefix import PrefixColumns
from repro.pipeline.backends import AggregationBackend, ExactAggregation
from repro.pipeline.sources import PacketBatch, PacketSource, SlotFrame
from repro.routing.lpm import NO_ROUTE

if TYPE_CHECKING:
    from repro.routing.rib import RoutingTable


class PrefixResolver(Protocol):
    """Batch address → prefix-row resolution (the aggregation key).

    ``prefixes`` is the resolver's table as columns; the aggregator
    hands it to the backend as it is, and a flow that earns a row is
    admitted as a slice of it — no :class:`Prefix` is built.
    """

    prefixes: PrefixColumns

    def lookup(self, addresses: np.ndarray) -> np.ndarray:
        """Rows into :attr:`prefixes` (:data:`NO_ROUTE` for no match)."""
        ...


class StreamingAggregator:
    """Bin packet batches into slots over a dynamic flow population.

    ``resolver`` maps destination addresses to prefixes — a
    :class:`~repro.routing.lpm.CompiledLpm`, a
    :class:`~repro.routing.lpm.FixedLengthResolver`, or a
    :class:`~repro.routing.rib.RoutingTable` (anything without a
    ``lookup`` is asked for its ``compiled()`` resolver on entry).
    ``start`` pins slot 0's timestamp; by default it is the first
    packet's timestamp floored to the ``slot_seconds`` grid.
    ``backend`` is the flow-table strategy: a built
    :class:`~repro.pipeline.backends.AggregationBackend`
    (``PipelineSpec.build_backend()`` or ``make_backend(...)`` — sketch,
    sharded, gated), or ``None`` for the exact table.

    ``sample_rate`` stamps every emitted frame: set it to the sampling
    front-end's applied inversion factor
    (:attr:`~repro.pipeline.sampling.SamplingSpec.applied_rate`) when
    the packet stream feeding this aggregator is sampled, so the
    classifier and the summary wire format know the rates are
    inverted estimates.
    """

    def __init__(
        self,
        resolver: PrefixResolver | RoutingTable,
        slot_seconds: float = DEFAULT_SLOT_SECONDS,
        start: float | None = None,
        backend: AggregationBackend | None = None,
        sample_rate: float = 1.0,
    ) -> None:
        if slot_seconds <= 0:
            raise ClassificationError("slot_seconds must be positive")
        if sample_rate < 1.0:
            raise ClassificationError("sample_rate must be >= 1")
        if not hasattr(resolver, "lookup"):
            resolver = resolver.compiled()
        self.resolver = resolver
        self.backend = ExactAggregation() if backend is None else backend
        self.sample_rate = float(sample_rate)
        self.slot_seconds = float(slot_seconds)
        self.start = start
        self.stats = AggregationStats()
        self._open_slot: int | None = None
        self._first_slot: int | None = None  # slot of the first frame
        self._frames_emitted = 0
        self._finished = False

    @property
    def prefixes(self) -> PrefixColumns:
        """Emitted population, in row order (the backend's live table)."""
        return self.backend.prefixes

    @property
    def num_flows(self) -> int:
        """Rows in the emitted population so far."""
        return len(self.backend.prefixes)

    @property
    def slots_emitted(self) -> int:
        """Frames emitted so far."""
        return self._frames_emitted

    def axis(self) -> TimeAxis:
        """The time axis covered by the frames emitted so far.

        Starts at the *first emitted frame's* slot (with an explicit
        ``start``, traffic may begin several slots in; no frames are
        emitted for the silent lead-in).
        """
        if (
            self.start is None
            or self._first_slot is None
            or self._frames_emitted == 0
        ):
            raise ClassificationError("no slots emitted yet")
        return TimeAxis(
            self.start + self._first_slot * self.slot_seconds,
            self.slot_seconds,
            self._frames_emitted,
        )

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------

    def ingest(self, batch: PacketBatch) -> list[SlotFrame]:
        """Account one batch; returns the slots it completed."""
        if self._finished:
            raise ClassificationError("aggregator already finished")
        self.stats.packets_seen += batch.packets_seen
        self.stats.packets_skipped += batch.packets_skipped
        if batch.num_packets == 0:
            return []

        timestamps = batch.timestamps
        if self.start is None:
            first = float(timestamps[0])
            self.start = (
                math.floor(first / self.slot_seconds) * self.slot_seconds
            )

        rows = self.resolver.lookup(batch.destinations)
        routed = rows != NO_ROUTE
        slots = np.floor(
            (timestamps - self.start) / self.slot_seconds
        ).astype(np.int64)
        floor_slot = self._open_slot if self._open_slot is not None else 0
        timely = slots >= floor_slot
        self.stats.packets_outside_axis += int((~timely).sum())
        self.stats.packets_unrouted += int((timely & ~routed).sum())
        keep = timely & routed
        if not keep.any():
            return []

        if keep.all():
            # all-routed in-order batches — the worker hot path, where
            # the columns are views into a shared-memory ring slot —
            # skip four full-batch fancy-index copies
            sizes = batch.wire_bytes
            self.stats.packets_matched += int(keep.size)
        else:
            slots = slots[keep]
            sizes = batch.wire_bytes[keep]
            rows = rows[keep]
            timestamps = timestamps[keep]
            self.stats.packets_matched += int(keep.sum())
        self.stats.bytes_matched += int(sizes.sum())

        # Group by slot (stable: preserves time order within a slot) and
        # hand each group to the backend, so the population a frame
        # carries is exactly the set of flows tracked up to that slot —
        # independent of how the capture was chunked into batches.
        # Chronological captures arrive already slot-sorted, so the
        # stable sort only runs for genuinely out-of-order batches.
        frames: list[SlotFrame] = []
        if slots.size > 1 and (np.diff(slots) < 0).any():
            order = np.argsort(slots, kind="stable")
            slots, sizes, rows, timestamps = (
                slots[order],
                sizes[order],
                rows[order],
                timestamps[order],
            )
        boundaries = np.flatnonzero(np.diff(slots)) + 1
        table = self.resolver.prefixes
        for group_slots, group_rows, group_sizes, group_times in zip(
            np.split(slots, boundaries),
            np.split(rows, boundaries),
            np.split(sizes, boundaries),
            np.split(timestamps, boundaries),
        ):
            slot = int(group_slots[0])
            if self._open_slot is None:
                self._open_slot = slot
            while self._open_slot < slot:
                frames.append(self._emit_open())
            self.backend.accumulate(
                group_rows, group_sizes, group_times, table
            )
        return frames

    def finish(self) -> list[SlotFrame]:
        """Flush the final open slot; the aggregator is then closed."""
        if self._finished:
            return []
        self._finished = True
        if self._open_slot is None:
            return []
        return [self._emit_open()]

    def frames(self, source: PacketSource) -> Iterator[SlotFrame]:
        """Drive a packet source to exhaustion, yielding slot frames."""
        for batch in source.batches():
            yield from self.ingest(batch)
        yield from self.finish()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _emit_open(self) -> SlotFrame:
        assert self._open_slot is not None and self.start is not None
        rates = self.backend.close_slot() * 8.0 / self.slot_seconds
        frame = SlotFrame(
            slot=self._open_slot,
            start=self.start + self._open_slot * self.slot_seconds,
            rates=rates,
            population=self.backend.prefixes,
            residual_row=self.backend.residual_row,
            sample_rate=self.sample_rate,
        )
        if self._first_slot is None:
            self._first_slot = self._open_slot
        self._open_slot += 1
        self._frames_emitted += 1
        return frame


class AggregatingSlotSource:
    """Adapt ``packet source + streaming aggregator`` to a slot source.

    This is the composition the ``repro stream`` command runs: packets
    in, classified slots out, one pass, bounded memory.
    """

    def __init__(
        self, packets: PacketSource, aggregator: StreamingAggregator
    ) -> None:
        self.packets = packets
        self.aggregator = aggregator
        self.slot_seconds = aggregator.slot_seconds

    def slots(self) -> Iterator[SlotFrame]:
        return self.aggregator.frames(self.packets)
