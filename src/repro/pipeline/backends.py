"""Pluggable aggregation backends: exact and bounded-memory sketches.

The streaming aggregator owes its O(flows) state to one design choice:
every prefix that ever carries a byte gets a row and a counter. On a
backbone capture with millions of active prefixes that choice *is* the
memory bill. This module makes the flow table a strategy object that
counts bytes per row per slot — the one number per flow the classifier
reads — and keeps no other per-flow ledger:

- :class:`ExactAggregation` keeps the original semantics — every flow
  tracked exactly, no residual, state O(distinct flows);
- the bounded backends cap the candidate table at ``capacity`` entries
  using a classic heavy-hitter summary (Space-Saving, Misra–Gries,
  Count-Min + candidate table, Sample-and-Hold). Bytes of untracked
  flows are conserved in a dedicated *residual row* (prefix
  ``0.0.0.0/0``, always row 0), so every emitted slot still sums to
  the traffic that arrived.

Space-Saving, Misra–Gries and Count-Min run on the production path as
flat struct-of-arrays candidate tables
(:class:`ArraySketchAggregation` family over
:mod:`repro.sketches.array_tables`) with one vectorized
probe/admit/evict pass per batch and per-slot accumulators held as
parallel arrays — no Python work per key on the hot path;
:func:`make_backend` builds these, and only these, by name. The
**scalar** classes (:class:`SketchAggregation` family) feed the
reference dict-and-heap sketches in :mod:`repro.sketches` one key at a
time. They are the semantics oracle — the property suite and the CI
bench construct them by class and hold the array tables to them (exact
agreement on single-key batches, the tables' documented batch
semantics otherwise) — and Sample-and-Hold, which has no batch
formulation, is the one name :func:`make_backend` maps to a scalar
class.

Row semantics under a sketch: a flow earns a stream row the first time
it is still tracked when a slot closes — surviving one slot boundary is
the admission test, so mice that bounce in and out of the summary
within a slot never inflate the population. Once assigned, a row is
permanent (the positional identity downstream classifiers depend on);
a flow evicted later keeps its row, its subsequent bytes simply fall
into the residual until it is re-admitted.

Populations are columns: ``backend.prefixes`` is a
:class:`~repro.net.prefix.PrefixColumns`, and a flow that earns a row
is admitted as a slice of the table that travels in the fourth
``accumulate`` argument (:data:`PrefixOf`: the resolver's own
``PrefixColumns`` on the production path, a ``key -> Prefix`` callable
from tests and slot-altitude replays) — one array step shared by every
array backend (:meth:`AggregationBackend._admit`). Only the scalar
oracles build a ``Prefix`` per candidate.

Backends also speak the slot altitude: :class:`SketchSlotSource`
filters any :class:`~repro.pipeline.sources.SlotSource` (for instance a
replayed matrix) through a backend, which is how
``engine.run_streaming`` applies a memory bound to recorded matrices.
"""

from __future__ import annotations

import abc
import heapq
from typing import Callable, Iterator

import numpy as np

from repro.errors import ClassificationError
from repro.net.prefix import Prefix, PrefixColumns
from repro.pipeline.sources import SlotFrame, SlotSource
from repro.sketches.array_tables import (
    ArrayCountMin,
    ArrayMisraGries,
    ArraySpaceSaving,
    _KeyTable,
)
from repro.sketches.bloom import (
    DEFAULT_ADMISSION_THRESHOLD,
    DEFAULT_BLOOM_DECAY,
    DEFAULT_BLOOM_DEPTH,
    gated_table,
)
from repro.sketches.count_min import CountMinSketch
from repro.sketches.misra_gries import MisraGries
from repro.sketches.sample_hold import SampleAndHold
from repro.sketches.space_saving import SpaceSaving

#: The population entry that absorbs untracked ("other") traffic. A
#: *real* default-route flow (a 0.0.0.0/0 RIB entry, or
#: ``--prefix-length 0``) is folded into this row rather than given its
#: own — under a sketch the two are indistinguishable, and populations
#: must stay duplicate-free.
RESIDUAL_PREFIX = Prefix(0, 0)

#: Rough per-tracked-entry cost in bytes for the scalar engine: sketch
#: dict slot, pending slot accumulator and row map entry, amortised.
#: The byte-budget sizing keeps using this conservative number for both
#: engines (the array tables' flat layout costs well under half of it),
#: so a budgeted deployment never under-buys.
TRACKED_ENTRY_BYTES = 320
#: Extra Count-Min table cells per unit of capacity (width factor x
#: depth x 8-byte counters).
_CM_WIDTH_FACTOR = 4
_CM_DEPTH = 4

#: The fourth ``accumulate`` argument, what gives flow keys their
#: prefixes: the resolver's table itself (the aggregator's; new flows
#: are admitted as slices of it) or a ``key -> Prefix`` callable
#: (tests, slot-altitude replays), asked once per admitted key.
PrefixOf = PrefixColumns | Callable[[int], Prefix]


def prefixes_of(prefix_of: PrefixOf, keys: np.ndarray) -> PrefixColumns:
    """The prefixes of flow keys ``keys``, as columns."""
    if isinstance(prefix_of, PrefixColumns):
        return prefix_of[keys]
    return PrefixColumns.of([prefix_of(key) for key in keys.tolist()])


def group_by_row(
    keys: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group one non-empty batch of packets by flow key, without sorting.

    Flow keys are dense resolver rows, so the group-by is an index
    into ``max(keys) + 1`` bins rather than a sort. Returns
    ``(unique, weights, first_index)``: the distinct keys ascending,
    the float64 sum of ``sizes`` per key (added in arrival order, so
    integer byte counts stay exact) and the position of each key's
    first packet — what ``np.unique(keys, return_index=True)`` plus a
    weighted ``np.bincount`` of its inverse give, in O(batch + max key).
    """
    # bincount first: it refuses a negative key, minimum.at would wrap
    sums = np.bincount(keys, weights=sizes)
    first = np.full(sums.size, keys.size, dtype=np.int64)
    np.minimum.at(first, keys, np.arange(keys.size))
    unique = np.flatnonzero(first < keys.size)
    return unique, sums[unique], first[unique]


def sum_by_row(rows: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """float64 sums of ``weights`` per row of a ``size``-row vector,
    each row's added in input order from zero — a per-entry fold's
    sums, bit for bit."""
    sums = np.bincount(rows, weights=weights, minlength=size)
    # bincount answers an empty input with integer zeros
    return sums.astype(np.float64, copy=False)


class AggregationBackend(abc.ABC):
    """Per-slot flow-table strategy behind the streaming aggregator.

    The aggregator feeds each slot's traffic through
    :meth:`accumulate` (integer flow keys, byte sizes, timestamps and
    what gives the keys their prefixes, see :data:`PrefixOf`) and calls
    :meth:`close_slot` at every slot boundary to harvest the byte
    vector. ``prefixes`` is the live, append-only population, a
    :class:`~repro.net.prefix.PrefixColumns` — frames share it by
    reference, so row ``i`` means the same flow in every frame a run
    emits, and a :class:`Prefix` is built only for a row somebody reads.

    A backend counts bytes per row per slot and nothing else: the
    classifier reads one bandwidth per flow per slot, so no packet
    counts or first/last-seen stamps are kept at this layer.
    """

    #: CLI / report name of the backend.
    name: str = "backend"
    #: Row absorbing untracked traffic (``None`` for exact backends).
    residual_row: int | None = None
    #: Tracked-flow bound (``None`` for unbounded/exact backends).
    capacity: int | None = None

    def __init__(self) -> None:
        self.prefixes = PrefixColumns()
        #: Flow key → row (-1: none yet); keys are dense resolver rows.
        self._key_row = np.full(0, -1, dtype=np.int64)
        #: Row → flow key, any residual row excluded (:meth:`row_keys`).
        self._keys: list[int] = []
        #: High-water mark of :attr:`tracked_flows` across the run.
        self.peak_tracked = 0
        #: Slots this backend has closed (backends are single-use).
        self.slots_closed = 0

    @property
    @abc.abstractmethod
    def tracked_flows(self) -> int:
        """Flows currently held in bounded state."""

    @abc.abstractmethod
    def accumulate(
        self,
        keys: np.ndarray,
        sizes: np.ndarray,
        timestamps: np.ndarray,
        prefix_of: PrefixOf,
    ) -> None:
        """Account one group of same-slot packets, keyed by flow.

        ``keys``, ``sizes`` and ``timestamps`` are parallel per-packet
        arrays in arrival order. Keys are dense non-negative rows (the
        resolver's, or a slot source's): backends index flat arrays by
        key, so work and memory per call are O(batch + largest key),
        and ``-1`` is reserved as the "no entry" marker of
        :class:`~repro.hash_index.HashIndex`. No bundled backend reads
        ``timestamps`` — the slot is already decided by the caller and
        only bytes are counted — but the argument is part of the
        signature callers and wrappers name, so it is always passed.
        """

    @abc.abstractmethod
    def close_slot(self) -> np.ndarray:
        """Byte counts per stream row for the closing slot; resets it."""

    def row_keys(self, start: int = 0) -> list[int]:
        """Flow keys in row order, excluding any residual row.

        ``row_keys()[i]`` is the integer flow key that owns row
        ``i + 1`` when the backend has a residual row, else row ``i``;
        ``row_keys(start)`` lists only the tail from index ``start``.
        Rows are assigned sequentially, so the list only ever grows;
        :class:`~repro.pipeline.sharded.ShardedAggregation` relies on
        this to map shard-local rows onto its merged population.
        """
        return self._keys[start:]

    def _rows_of(self, keys: np.ndarray) -> np.ndarray:
        """The row of each key, -1 where it has none yet."""
        top, size = int(keys.max(initial=-1)) + 1, self._key_row.size
        if top > size:
            grown = np.full(max(top, 2 * size), -1, dtype=np.int64)
            grown[:size] = self._key_row
            self._key_row = grown
        return self._key_row[keys]

    def _admit(self, keys: np.ndarray, table: PrefixColumns) -> None:
        """Give ``keys`` (distinct, rowless, seen by :meth:`_rows_of`)
        the next rows, in order; ``table[i]`` is the prefix of
        ``keys[i]``. The one new-flow step of every array backend: two
        column appends and a vector write of the key → row map."""
        if self.residual_row is not None:
            # a tracked default route is indistinguishable from the
            # "other traffic" row: it shares that row rather than
            # putting a second 0.0.0.0/0 into the population
            real = table.keys() != 0
            self._key_row[keys[~real]] = self.residual_row
            keys, table = keys[real], table[real]
        first = len(self.prefixes)
        self.prefixes.extend(table.network, table.length)
        self._key_row[keys] = np.arange(first, first + keys.size)
        self._keys.extend(keys.tolist())

    def _admit_first_traffic(
        self, unique: np.ndarray, first_index: np.ndarray, prefix_of: PrefixOf
    ) -> None:
        """Rows for the grouped keys that have none, numbered in
        first-traffic order (keys arrive time-ordered within a slot
        group), so the numbering does not depend on how the capture was
        chunked into batches."""
        new = self._rows_of(unique) < 0
        if new.any():
            fresh = unique[new][np.argsort(first_index[new])]
            self._admit(fresh, prefixes_of(prefix_of, fresh))

    @property
    def num_rows(self) -> int:
        """Rows in the emitted population (>= tracked for sketches)."""
        return len(self.prefixes)


class ExactAggregation(AggregationBackend):
    """The unbounded reference backend: every flow tracked exactly.

    This is the flow table the original ``StreamingAggregator``
    carried, extracted behind the backend interface: a prefix gets the
    next free row the first time it carries bytes and keeps it forever.
    Flow keys are resolver rows — dense small integers — so the
    key → row map is a flat vector and the open-slot accumulator grows
    geometrically, leaving no per-batch rebuild work on the hot path.
    """

    name = "exact"
    residual_row = None

    def __init__(self) -> None:
        super().__init__()
        self._open = np.zeros(0)

    @property
    def tracked_flows(self) -> int:
        return len(self.prefixes)

    def accumulate(
        self,
        keys: np.ndarray,
        sizes: np.ndarray,
        timestamps: np.ndarray,
        prefix_of: PrefixOf,
    ) -> None:
        if keys.size == 0:
            return
        unique, weights, first_index = group_by_row(keys, sizes)
        self._admit_first_traffic(unique, first_index, prefix_of)
        population = len(self.prefixes)
        size = self._open.size
        if population > size:
            grown = np.zeros(max(population, 2 * size))
            grown[:size] = self._open
            self._open = grown
        # one key, one row: the rows are distinct, a plain add suffices
        self._open[self._key_row[unique]] += weights
        self.peak_tracked = max(self.peak_tracked, population)

    def close_slot(self) -> np.ndarray:
        # accumulate() keeps _open at least population-sized (growing
        # geometrically); the emitted vector covers exactly the rows
        population = len(self.prefixes)
        closed = self._open[:population].copy()
        self._open[:population] = 0.0
        self.slots_closed += 1
        return closed


class _PendingEntry:
    """Slot-local byte accumulator for one candidate flow."""

    __slots__ = ("bytes", "prefix")

    def __init__(self, prefix: Prefix) -> None:
        self.bytes = 0.0
        self.prefix = prefix


class SketchAggregation(AggregationBackend):
    """Base for scalar bounded backends: sketch + residual bookkeeping.

    Subclasses provide the summary itself via :meth:`_offer` (feed one
    weighted key, report whether it is tracked afterwards) and
    :meth:`_tracked`. This class owns the slot-local candidate
    accounting, the prune-on-eviction step that keeps the candidate
    table at ``capacity``, and the row assignment at slot close. It is
    the reference implementation the array tables are tested against.
    """

    residual_row = 0

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ClassificationError("capacity must be >= 1")
        super().__init__()
        self.capacity = capacity
        self.prefixes = PrefixColumns.of([RESIDUAL_PREFIX])
        self._row_of: dict[int, int] = {}
        self._pending: dict[int, _PendingEntry] = {}
        self._residual = 0.0

    @abc.abstractmethod
    def _offer(self, key: int, weight: float) -> bool:
        """Feed one weighted key to the sketch; is it tracked now?"""

    @abc.abstractmethod
    def _tracked(self, key: int) -> bool:
        """Is ``key`` currently held by the sketch?"""

    def accumulate(
        self,
        keys: np.ndarray,
        sizes: np.ndarray,
        timestamps: np.ndarray,
        prefix_of: PrefixOf,
    ) -> None:
        if keys.size == 0:
            return
        if isinstance(prefix_of, PrefixColumns):
            # the oracle stays boxed: one Prefix per candidate, read
            # from the resolver's table as it is asked of a callable
            prefix_of = prefix_of.__getitem__
        unique, first_index, inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
        weights = np.bincount(inverse, weights=sizes)
        # Offer keys in first-traffic order: admission/eviction races
        # then resolve the way a per-packet monitor would, and row
        # assignment at slot close inherits the same chunk-independent
        # ordering the exact backend guarantees.
        for i in np.argsort(first_index).tolist():
            key = int(unique[i])
            weight = float(weights[i])
            if self._offer(key, weight):
                entry = self._pending.get(key)
                if entry is None:
                    entry = _PendingEntry(prefix_of(key))
                    self._pending[key] = entry
                entry.bytes += weight
            else:
                self._residual += weight
        # Candidates evicted by later arrivals in this group fall back
        # to the residual — this prune is what bounds the slot-local
        # table at the sketch's capacity.
        evicted = [key for key in self._pending if not self._tracked(key)]
        for key in evicted:
            self._residual += self._pending.pop(key).bytes
        self.peak_tracked = max(self.peak_tracked, self.tracked_flows)

    def close_slot(self) -> np.ndarray:
        attributed: list[tuple[int, float]] = []
        for key, entry in self._pending.items():
            if entry.prefix == RESIDUAL_PREFIX:
                # A tracked default route is indistinguishable from the
                # "other traffic" row; fold it in rather than emitting
                # a duplicate 0.0.0.0/0 population entry.
                self._residual += entry.bytes
                continue
            row = self._row_of.get(key)
            if row is None:
                row = len(self.prefixes)
                self._row_of[key] = row
                self._keys.append(key)
                self.prefixes.extend(
                    [entry.prefix.network], [entry.prefix.length]
                )
            attributed.append((row, entry.bytes))
        vector = np.zeros(len(self.prefixes))
        for row, volume in attributed:
            vector[row] += volume
        vector[self.residual_row] += self._residual
        self._pending = {}
        self._residual = 0.0
        self.slots_closed += 1
        return vector


class SummaryGatedAggregation(SketchAggregation):
    """Sketches whose summary object *is* the membership test.

    Space-Saving, Misra–Gries and Sample-and-Hold all expose the same
    shape — ``update(key, weight)``, ``estimate(key)`` (positive iff
    tracked), ``len()`` — so the offer/tracked logic lives here once;
    subclasses only construct ``self._sketch``.
    """

    _sketch: SpaceSaving[int] | MisraGries[int] | SampleAndHold[int]

    @property
    def tracked_flows(self) -> int:
        return len(self._sketch)

    def _offer(self, key: int, weight: float) -> bool:
        self._sketch.update(key, weight)
        return self._sketch.estimate(key) > 0.0

    def _tracked(self, key: int) -> bool:
        return self._sketch.estimate(key) > 0.0


class SpaceSavingAggregation(SummaryGatedAggregation):
    """Space-Saving candidate table: overflow evicts the minimum count.

    Every newcomer is admitted (inheriting the victim's count), so the
    slot-close survival rule does the real gating: a mouse admitted and
    evicted within one slot never earns a row.
    """

    name = "space-saving"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._sketch = SpaceSaving(capacity)


class MisraGriesAggregation(SummaryGatedAggregation):
    """Misra–Gries counters: light newcomers decrement, heavy ones stay.

    Deterministic and admission-selective — a flow lighter than the
    current minimum counter is never tracked at all, so the candidate
    table churns less than Space-Saving's at equal capacity.
    """

    name = "misra-gries"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._sketch = MisraGries(capacity)


class CountMinAggregation(SketchAggregation):
    """Count-Min sketch + a ``capacity``-entry candidate heap.

    The sketch carries the frequency estimates; the candidate table
    admits a key when its estimate beats the current minimum candidate,
    found through a lazy min-heap (stale entries are discarded on peek,
    as in :class:`~repro.sketches.space_saving.SpaceSaving`) so each
    untracked key costs O(log capacity), not a table scan. Hash-based,
    so unlike the counter summaries it never forgets a flow's history —
    at the price of one-sided over-estimation.
    """

    name = "count-min"

    def __init__(
        self,
        capacity: int,
        seed: int = 0,
        width: int | None = None,
        depth: int = _CM_DEPTH,
    ) -> None:
        super().__init__(capacity)
        if width is None:
            width = max(16, _CM_WIDTH_FACTOR * capacity)
        self._sketch = CountMinSketch(width=width, depth=depth, seed=seed)
        self._candidates: dict[int, float] = {}
        self._heap: list[tuple[float, int]] = []

    @property
    def tracked_flows(self) -> int:
        return len(self._candidates)

    def _admit(self, key: int, estimate: float) -> None:
        self._candidates[key] = estimate
        heapq.heappush(self._heap, (estimate, key))
        # Stale entries (superseded estimates) accumulate faster than
        # peeks discard them on a stable candidate set; rebuild once
        # they dominate so heap memory stays O(capacity), not O(stream).
        if len(self._heap) > 4 * self.capacity:
            self._heap = [
                (value, tracked)
                for tracked, value in self._candidates.items()
            ]
            heapq.heapify(self._heap)

    def _peek_minimum(self) -> tuple[int, float]:
        """The current smallest candidate, skipping stale heap entries."""
        while self._heap:
            estimate, key = self._heap[0]
            if self._candidates.get(key) == estimate:
                return key, estimate
            heapq.heappop(self._heap)
        # Staleness drained the heap: rebuild from the live table.
        self._heap = [(value, key) for key, value in self._candidates.items()]
        heapq.heapify(self._heap)
        estimate, key = self._heap[0]
        return key, estimate

    def _offer(self, key: int, weight: float) -> bool:
        self._sketch.update(key, weight)
        estimate = self._sketch.estimate(key)
        if key in self._candidates:
            self._admit(key, estimate)
            return True
        if len(self._candidates) < self.capacity:
            self._admit(key, estimate)
            return True
        minimum, minimum_estimate = self._peek_minimum()
        if estimate > minimum_estimate:
            del self._candidates[minimum]
            self._admit(key, estimate)
            return True
        return False

    def _tracked(self, key: int) -> bool:
        return key in self._candidates


class SampleHoldAggregation(SummaryGatedAggregation):
    """Sample-and-Hold: byte-sampled admission, exact counting after.

    ``sampling_probability`` is per byte; with the default ``1e-5`` a
    flow is caught after ~100 kB in expectation. Held flows are never
    evicted, so the candidate table fills monotonically up to
    ``capacity``. Admission draws the seeded RNG once per offer, so
    there is no order-free batch formulation — this backend has no
    array table and is the one scalar class on the production path.
    """

    name = "sample-hold"

    def __init__(
        self,
        capacity: int,
        sampling_probability: float = 1e-5,
        seed: int = 0,
    ) -> None:
        super().__init__(capacity)
        self._sketch = SampleAndHold(
            sampling_probability, seed=seed, max_entries=capacity
        )


class ArraySketchAggregation(AggregationBackend):
    """Array-engine bounded backend: batch kernels, flat accumulators.

    The candidate summary is an array table from
    :mod:`repro.sketches.array_tables`; all slot-local accounting —
    pending bytes and activation order — lives in parallel
    ``capacity``-sized arrays indexed by table slot.
    ``accumulate`` aggregates the batch per unique key, hands the
    aggregate to the table's one-pass batch update, flushes evicted
    slots into the residual scalar, and adds the surviving
    contributions with pure array ops; slot close places the slots
    that earned a row with the same array admission step the exact
    table uses, so no Python loop runs per key or per row anywhere.

    Residual-row conservation, slot-close row admission and positional
    row identity match the scalar reference exactly; the property
    suite drives both packet-by-packet to pin the equivalence.
    """

    residual_row = 0

    def __init__(
        self,
        capacity: int,
        admission: str | None = None,
        admission_threshold: float = DEFAULT_ADMISSION_THRESHOLD,
        admission_width: int | None = None,
        admission_depth: int = DEFAULT_BLOOM_DEPTH,
        admission_decay: float = DEFAULT_BLOOM_DECAY,
        admission_seed: int = 0,
    ) -> None:
        if capacity < 1:
            raise ClassificationError("capacity must be >= 1")
        super().__init__()
        self.capacity = capacity
        self.prefixes = PrefixColumns.of([RESIDUAL_PREFIX])
        self._table = self._make_table(capacity)
        if admission in (None, "none"):
            self.admission = None
        elif admission == "bloom":
            self.admission = admission
            self._table = gated_table(
                self._table,
                threshold_bytes=admission_threshold,
                width=admission_width,
                depth=admission_depth,
                decay=admission_decay,
                seed=admission_seed,
            )
        else:
            raise ClassificationError(
                f"unknown admission policy {admission!r}; expected one "
                f"of {', '.join(ADMISSION_NAMES)}"
            )
        self._pend_bytes = np.zeros(capacity)
        self._pend_active = np.zeros(capacity, dtype=bool)
        self._pend_seq = np.zeros(capacity, dtype=np.int64)
        self._seq = 0
        self._res_bytes = 0.0
        self._resolve: PrefixOf | None = None

    @abc.abstractmethod
    def _make_table(self, capacity: int) -> _KeyTable:
        """Build the array candidate table for this summary."""

    @property
    def tracked_flows(self) -> int:
        return len(self._table)

    @property
    def admission_rejected_bytes(self) -> float:
        """Bytes turned away by the admission gate (0 without one)."""
        return float(getattr(self._table, "rejected_weight", 0.0))

    def accumulate(
        self,
        keys: np.ndarray,
        sizes: np.ndarray,
        timestamps: np.ndarray,
        prefix_of: PrefixOf,
    ) -> None:
        if keys.size == 0:
            return
        self._resolve = prefix_of
        unique, weights, first_index = group_by_row(keys, sizes)
        order = np.argsort(first_index)
        update = self._table.update_batch(unique, weights, order)
        self._flush_evicted(update.evicted)
        slots = update.slots
        tracked = slots >= 0
        if not tracked.all():
            self._res_bytes += float(weights[~tracked].sum())
        if tracked.any():
            self._pend_bytes[slots[tracked]] += weights[tracked]
            # Activation order follows first-traffic order, mirroring
            # the scalar engine's pending-dict insertion order, so row
            # numbering at slot close is engine-independent.
            offers = order[tracked[order]]
            ospots = slots[offers]
            fresh = ospots[~self._pend_active[ospots]]
            if fresh.size:
                self._pend_seq[fresh] = self._seq + np.arange(fresh.size)
                self._seq += fresh.size
                self._pend_active[fresh] = True
        self.peak_tracked = max(self.peak_tracked, len(self._table))

    def _flush_evicted(self, evicted: np.ndarray) -> None:
        """Evicted slots spill their pending accounting to residual."""
        live = evicted[self._pend_active[evicted]]
        if live.size:
            self._res_bytes += float(self._pend_bytes[live].sum())
            self._reset_pending(live)

    def _reset_pending(self, spots: np.ndarray) -> None:
        self._pend_bytes[spots] = 0.0
        self._pend_active[spots] = False

    def close_slot(self) -> np.ndarray:
        active = np.flatnonzero(self._pend_active)
        active = active[np.argsort(self._pend_seq[active])]
        keys = self._table.key[active]
        fresh = keys[self._rows_of(keys) < 0]
        if fresh.size:
            self._admit(fresh, prefixes_of(self._resolve, fresh))
        # a tracked default route sits on the residual row (see
        # _admit), every other key on a row of its own
        vector = sum_by_row(
            self._key_row[keys], self._pend_bytes[active], len(self.prefixes)
        )
        vector[self.residual_row] += self._res_bytes
        self._res_bytes = 0.0
        if active.size:
            self._reset_pending(active)
        end_slot = getattr(self._table, "end_slot", None)
        if end_slot is not None:
            # slot-boundary hook — the Bloom admission gate ages its
            # counters here so the threshold tracks recent bytes
            end_slot()
        self.slots_closed += 1
        return vector


class ArraySpaceSavingAggregation(ArraySketchAggregation):
    """Array-engine Space-Saving (see :class:`SpaceSavingAggregation`)."""

    name = "space-saving"

    def _make_table(self, capacity: int) -> _KeyTable:
        return ArraySpaceSaving(capacity)


class ArrayMisraGriesAggregation(ArraySketchAggregation):
    """Array-engine Misra–Gries (see :class:`MisraGriesAggregation`)."""

    name = "misra-gries"

    def _make_table(self, capacity: int) -> _KeyTable:
        return ArrayMisraGries(capacity)


class ArrayCountMinAggregation(ArraySketchAggregation):
    """Array-engine Count-Min (see :class:`CountMinAggregation`)."""

    name = "count-min"

    def __init__(
        self,
        capacity: int,
        seed: int = 0,
        width: int | None = None,
        depth: int = _CM_DEPTH,
        **admission,
    ) -> None:
        if width is None:
            width = max(16, _CM_WIDTH_FACTOR * capacity)
        self._cm_params = (width, depth, seed)
        super().__init__(capacity, **admission)

    def _make_table(self, capacity: int) -> _KeyTable:
        width, depth, seed = self._cm_params
        return ArrayCountMin(capacity, width=width, depth=depth, seed=seed)


class SketchSlotSource:
    """Filter a slot source through a backend: bounded frames out.

    Adapts the backend to the slot altitude: each incoming frame's
    per-row byte volumes are offered to the backend keyed by source row
    (which must be positionally stable, as every repo slot source is),
    and the re-emitted frame covers the backend's population plus the
    residual. This is how a recorded matrix replays under a memory
    bound without touching the packet layer.
    """

    def __init__(
        self, source: SlotSource, backend: AggregationBackend
    ) -> None:
        self.source = source
        self.backend = backend
        self.slot_seconds = source.slot_seconds

    def slots(self) -> Iterator[SlotFrame]:
        seconds = self.slot_seconds
        for frame in self.source.slots():
            volumes = frame.rates * seconds / 8.0
            active = np.flatnonzero(volumes > 0)
            if active.size:
                self.backend.accumulate(
                    active,
                    volumes[active],
                    np.full(active.size, frame.start),
                    frame.population.__getitem__,
                )
            closed = self.backend.close_slot()
            yield SlotFrame(
                slot=frame.slot,
                start=frame.start,
                rates=closed * 8.0 / seconds,
                population=self.backend.prefixes,
                residual_row=self.backend.residual_row,
            )


#: CLI names accepted by :func:`make_backend`.
BACKEND_NAMES = (
    "exact",
    "space-saving",
    "misra-gries",
    "count-min",
    "sample-hold",
)

#: Admission policies accepted by :func:`make_backend`. ``"bloom"``
#: puts a counting-Bloom byte-threshold gate in front of the array
#: candidate tables (:mod:`repro.sketches.bloom`).
ADMISSION_NAMES = ("none", "bloom")

#: Sketch names whose candidate table is an array table — the ones a
#: Bloom admission gate can front.
ARRAY_SKETCH_NAMES = ("space-saving", "misra-gries", "count-min")

#: The one production class per sketch name. The three summaries with a
#: batch formulation run as array tables; sample-hold is inherently
#: sequential (one RNG draw per offer) and runs the scalar sketch.
_SKETCH_CLASSES: dict[str, type[AggregationBackend]] = {
    "space-saving": ArraySpaceSavingAggregation,
    "misra-gries": ArrayMisraGriesAggregation,
    "count-min": ArrayCountMinAggregation,
    "sample-hold": SampleHoldAggregation,
}


def make_backend(
    name: str,
    capacity: int | None = None,
    seed: int = 0,
    shards: int = 1,
    admission: str | None = None,
    **kwargs,
) -> AggregationBackend:
    """Build a backend by CLI name.

    ``exact`` takes no capacity; every sketch backend requires one.
    Extra keyword arguments go to the backend constructor (for example
    ``sampling_probability`` for ``sample-hold``, or the
    ``admission_*`` tuning knobs of the Bloom gate).

    ``admission`` selects the candidate-admission pre-filter:
    ``"bloom"`` gates entry to the candidate table on a counting-Bloom
    byte threshold, so tail flows stop churning the table. Only the
    array-table backends (every sketch but ``sample-hold``) support it.

    ``shards > 1`` wraps ``shards`` inner backends of the same spec
    (:func:`make_shard`) in a
    :class:`~repro.pipeline.sharded.ShardedAggregation`. ``capacity``
    stays the *total* tracked-flow bound: each shard gets
    ``ceil(capacity / shards)`` entries, so a sharded run never holds
    more than one extra entry per shard beyond the requested K.
    """
    if shards < 1:
        raise ClassificationError("shards must be >= 1")
    inners = [
        make_shard(name, i, shards, capacity, seed, admission, **kwargs)
        for i in range(shards)
    ]
    if shards == 1:
        return inners[0]
    # imported here: sharded sits above this module
    from repro.pipeline.sharded import ShardedAggregation

    return ShardedAggregation(inners)


def make_shard(
    name: str,
    index: int,
    shards: int,
    capacity: int | None = None,
    seed: int = 0,
    admission: str | None = None,
    **kwargs,
) -> AggregationBackend:
    """The inner backend partition ``index`` of a ``shards``-way split owns.

    The split rule lives here and nowhere else, so an in-process
    ``--shards N`` table and the table worker ``index`` of a
    ``--workers N`` fleet builds in its own process are the same
    object: ``ceil(capacity / shards)`` entries, hash seed
    ``seed + index`` (distinct seeds decorrelate the hash-based
    shards' errors), and a Bloom gate seeded with the fleet-wide
    ``seed``.
    """
    if name not in BACKEND_NAMES:
        raise ClassificationError(
            f"unknown backend {name!r}; expected one of "
            f"{', '.join(BACKEND_NAMES)}"
        )
    if admission is not None and admission not in ADMISSION_NAMES:
        raise ClassificationError(
            f"unknown admission policy {admission!r}; expected one of "
            f"{', '.join(ADMISSION_NAMES)}"
        )
    if admission not in (None, "none"):
        if name not in ARRAY_SKETCH_NAMES:
            raise ClassificationError(
                "admission gating needs an array-table sketch backend "
                f"({', '.join(ARRAY_SKETCH_NAMES)}); got {name!r}"
            )
        kwargs.setdefault("admission_seed", seed)
        kwargs["admission"] = admission
    if name == "exact":
        if capacity is not None:
            raise ClassificationError(
                "the exact backend tracks every flow; --capacity only "
                "applies to sketch backends"
            )
        return ExactAggregation(**kwargs)
    if capacity is None:
        raise ClassificationError(
            f"backend {name!r} needs --capacity or --memory-budget"
        )
    if capacity < 1:
        raise ClassificationError("capacity must be >= 1")
    if name in ("count-min", "sample-hold"):
        kwargs.setdefault("seed", seed + index)
    return _SKETCH_CLASSES[name](-(-capacity // shards), **kwargs)


def parse_memory_budget(text: str) -> int:
    """Parse ``"512k"``/``"8m"``/``"1g"``/plain-byte budget strings."""
    digits = text.strip().lower()
    multiplier = 1
    if digits and digits[-1] in "kmg":
        multiplier = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}[digits[-1]]
        digits = digits[:-1]
    try:
        value = int(digits)
    except ValueError:
        raise ClassificationError(
            f"bad memory budget {text!r}; use bytes or k/m/g suffixes"
        ) from None
    if value < 1:
        raise ClassificationError("memory budget must be positive")
    return value * multiplier


def capacity_for_budget(name: str, budget_bytes: int, shards: int = 1) -> int:
    """Convert a byte budget into a tracked-flow capacity for ``name``.

    Uses the coarse :data:`TRACKED_ENTRY_BYTES` cost model; Count-Min
    additionally pays for its counter table, which scales with capacity
    through the default width factor. The array tables' flat layout
    costs less per entry, so a budget sized here is an upper bound
    under either engine.

    ``shards`` sizes a sharded deployment: the budget buys ``shards``
    tables of ``K / shards`` entries each, and the returned capacity is
    the total across shards — so a budgeted sharded run occupies the
    same memory as a single-table run, not ``shards`` times it.
    """
    if name == "exact":
        raise ClassificationError(
            "the exact backend has no memory bound to budget; "
            "pick a sketch backend"
        )
    if shards < 1:
        raise ClassificationError("shards must be >= 1")
    per_entry = TRACKED_ENTRY_BYTES
    if name == "count-min":
        per_entry += _CM_WIDTH_FACTOR * _CM_DEPTH * 8
    per_shard = (budget_bytes // shards) // per_entry
    if per_shard < 1:
        raise ClassificationError(
            f"memory budget {budget_bytes} B across {shards} shard(s) "
            f"is below one tracked entry (~{per_entry} B) for backend "
            f"{name!r}"
        )
    return int(per_shard * shards)
