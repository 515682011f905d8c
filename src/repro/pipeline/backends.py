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

A bounded backend is handed its summary, built, instead of subclassing
per summary. :class:`ArraySketchAggregation` runs any candidate table
of :mod:`repro.sketches.array_tables` — with or without a Bloom
admission gate inside its batch kernel
(:func:`~repro.sketches.bloom.gated_table`) — with one vectorized
probe/admit/evict pass per batch and per-slot accumulators held as
parallel arrays: no Python work per key on the hot path.
:func:`make_backend` builds it for every sketch name from one
name → table dict. The **scalar** :class:`SketchAggregation` feeds any
dict-and-heap summary of :mod:`repro.sketches` one key at a time: the
semantics oracle, which tests build by hand
(``SketchAggregation(SpaceSaving(K), K, "space-saving")``) and hold the
array tables to — exact agreement on single-key batches (any batch for
Sample-and-Hold), the tables' documented batch semantics otherwise.

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
``accumulate`` argument (the resolver's own ``PrefixColumns``; a
slot-altitude replay hands over the frame population) — one array step
shared by every array backend (:meth:`AggregationBackend._admit`).
Only the scalar oracle builds a ``Prefix`` per candidate.

Backends also speak the slot altitude: :class:`SketchSlotSource`
filters any :class:`~repro.pipeline.sources.SlotSource` (for instance a
replayed matrix) through a backend, which is how
``engine.run_streaming`` applies a memory bound to recorded matrices.
"""

from __future__ import annotations

import abc
from typing import Callable, Iterator

import numpy as np

from repro.errors import ClassificationError
from repro.net.prefix import Prefix, PrefixColumns
from repro.pipeline.sources import SlotFrame, SlotSource
from repro.sketches.array_tables import (
    ArrayCountMin,
    ArrayMisraGries,
    ArraySampleHold,
    ArraySpaceSaving,
    _KeyTable,
)
from repro.sketches.bloom import DEFAULT_ADMISSION_THRESHOLD, gated_table

#: The population entry that absorbs untracked ("other") traffic. A
#: *real* default-route flow (a 0.0.0.0/0 RIB entry, or
#: ``--prefix-length 0``) is folded into this row rather than given its
#: own — under a sketch the two are indistinguishable, and populations
#: must stay duplicate-free.
RESIDUAL_PREFIX = Prefix(0, 0)

#: What the byte-budget sizing charges per tracked entry: table slot,
#: key index, pending slot accumulator and row map entry, amortised. A
#: conservative budget constant — the array tables' flat layout costs
#: well under half of it — so a budgeted deployment never under-buys.
TRACKED_ENTRY_BYTES = 320
#: Extra Count-Min table cells per unit of capacity (width factor x
#: depth x 8-byte counters).
_CM_WIDTH_FACTOR = 4
_CM_DEPTH = 4


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
    the prefix table the keys are rows of) and calls
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
    #: Bytes turned away by an admission gate (0 without one).
    admission_rejected_bytes = 0.0

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
        table: PrefixColumns,
    ) -> None:
        """Account one group of same-slot packets, keyed by flow.

        ``keys``, ``sizes`` and ``timestamps`` are parallel per-packet
        arrays in arrival order. Keys are dense non-negative rows of
        ``table`` (the resolver's prefixes, or a slot source's
        population; new flows are admitted as slices of it): backends
        index flat arrays by key, so work and memory per call are
        O(batch + largest key), and ``-1`` is reserved as the "no
        entry" marker of :class:`~repro.hash_index.HashIndex`. No
        bundled backend reads ``timestamps`` — the slot is already
        decided by the caller and only bytes are counted — but the
        argument is part of the signature callers and wrappers name, so
        it is always passed.
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
        self, unique: np.ndarray, first: np.ndarray, table: PrefixColumns
    ) -> None:
        """Rows for the grouped keys that have none, numbered in
        first-traffic order (``first``: each key's first packet; keys
        arrive time-ordered within a slot group), so the numbering does
        not depend on how the capture was chunked into batches."""
        new = self._rows_of(unique) < 0
        if new.any():
            fresh = unique[new][np.argsort(first[new])]
            self._admit(fresh, table[fresh])

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
        table: PrefixColumns,
    ) -> None:
        if keys.size == 0:
            return
        unique, weights, first_index = group_by_row(keys, sizes)
        self._admit_first_traffic(unique, first_index, table)
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
    """The scalar bounded backend: any reference summary, key by key.

    ``sketch`` is a built :mod:`repro.sketches` summary that speaks
    ``update(key, weight)``, ``estimate(key)`` (positive iff tracked)
    and ``len()`` — ``SpaceSaving``, ``MisraGries``,
    ``CountMinCandidates``, ``SampleAndHold`` — holding at most
    ``capacity`` keys. This class owns the slot-local candidate
    accounting, the prune-on-eviction step that keeps the candidate
    table at ``capacity``, and the row assignment at slot close. It is
    the reference implementation the array tables are tested against.
    """

    residual_row = 0

    def __init__(self, sketch, capacity: int, name: str) -> None:
        super().__init__()
        self.name = name
        self.capacity = capacity
        self.prefixes = PrefixColumns.of([RESIDUAL_PREFIX])
        self._sketch = sketch
        self._row_of: dict[int, int] = {}
        self._pending: dict[int, _PendingEntry] = {}
        self._residual = 0.0

    @property
    def tracked_flows(self) -> int:
        return len(self._sketch)

    def _tracked(self, key: int) -> bool:
        return self._sketch.estimate(key) > 0.0

    def accumulate(
        self,
        keys: np.ndarray,
        sizes: np.ndarray,
        timestamps: np.ndarray,
        table: PrefixColumns,
    ) -> None:
        if keys.size == 0:
            return
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
            self._sketch.update(key, weight)
            if self._tracked(key):
                entry = self._pending.get(key)
                if entry is None:
                    # the oracle stays boxed: one Prefix per candidate
                    entry = _PendingEntry(table[key])
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


class ArraySketchAggregation(AggregationBackend):
    """The bounded production backend: batch kernels, flat accumulators.

    ``table`` is a built :mod:`repro.sketches.array_tables` candidate
    table, gated or not (:func:`~repro.sketches.bloom.gated_table`);
    all slot-local accounting — pending bytes and activation order —
    lives in parallel ``capacity``-sized arrays indexed by table slot.
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

    def __init__(self, table: _KeyTable, name: str) -> None:
        super().__init__()
        self.name = name
        self.capacity = table.capacity
        self.prefixes = PrefixColumns.of([RESIDUAL_PREFIX])
        self._table = table
        self._pend_bytes = np.zeros(table.capacity)
        self._pend_active = np.zeros(table.capacity, dtype=bool)
        self._pend_seq = np.zeros(table.capacity, dtype=np.int64)
        self._seq = 0
        self._res_bytes = 0.0
        self._resolve: PrefixColumns | None = None

    @property
    def tracked_flows(self) -> int:
        return len(self._table)

    @property
    def admission_rejected_bytes(self) -> float:
        return float(self._table.rejected_weight)

    def accumulate(
        self,
        keys: np.ndarray,
        sizes: np.ndarray,
        timestamps: np.ndarray,
        table: PrefixColumns,
    ) -> None:
        if keys.size == 0:
            return
        self._resolve = table
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
            # the scalar oracle's pending-dict insertion order, so row
            # numbering at slot close is the same under either class.
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
            self._admit(fresh, self._resolve[fresh])
        # a tracked default route sits on the residual row (see
        # _admit), every other key on a row of its own
        vector = sum_by_row(
            self._key_row[keys], self._pend_bytes[active], len(self.prefixes)
        )
        vector[self.residual_row] += self._res_bytes
        self._res_bytes = 0.0
        if active.size:
            self._reset_pending(active)
        # slot-boundary hook — a table's Bloom admission gate ages its
        # counters here so the threshold tracks recent bytes
        self._table.end_slot()
        self.slots_closed += 1
        return vector


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
        seen = table = None
        for frame in self.source.slots():
            if seen is not frame.population or len(table) < frame.num_flows:
                # unboxed once per population the source hands out
                # (again if a live boxed one has grown), not per slot
                seen = frame.population
                table = PrefixColumns.of(seen)
            volumes = frame.rates * seconds / 8.0
            active = np.flatnonzero(volumes > 0)
            if active.size:
                self.backend.accumulate(
                    active,
                    volumes[active],
                    np.full(active.size, frame.start),
                    table,
                )
            closed = self.backend.close_slot()
            yield SlotFrame(
                slot=frame.slot,
                start=frame.start,
                rates=closed * 8.0 / seconds,
                population=self.backend.prefixes,
                residual_row=self.backend.residual_row,
            )


#: One builder per sketch name: ``(capacity, seed) -> table``. A new
#: summary is one entry here; :data:`BACKEND_NAMES`, the CLI choices,
#: sharding, the Bloom gate and the byte budget follow from it.
_TABLES: dict[str, Callable[[int, int], _KeyTable]] = {
    "space-saving": lambda k, seed: ArraySpaceSaving(k),
    "misra-gries": lambda k, seed: ArrayMisraGries(k),
    "count-min": lambda k, seed: ArrayCountMin(
        k, width=max(16, _CM_WIDTH_FACTOR * k), depth=_CM_DEPTH, seed=seed
    ),
    "sample-hold": lambda k, seed: ArraySampleHold(k, seed=seed),
}

#: CLI names accepted by :func:`make_backend`.
BACKEND_NAMES = ("exact", *_TABLES)

#: Admission policies accepted by :func:`make_backend`. ``"bloom"``
#: puts a counting-Bloom byte-threshold gate in front of the candidate
#: table (:mod:`repro.sketches.bloom`).
ADMISSION_NAMES = ("none", "bloom")


def check_backend(
    name: str, capacity: int | None, admission: str = "none"
) -> None:
    """Raise unless ``name`` / ``capacity`` / ``admission`` combine: the
    one place these rules are written, which :func:`make_shard` and
    :class:`~repro.pipeline.spec.PipelineSpec` both call."""
    if name not in BACKEND_NAMES:
        raise ClassificationError(
            f"unknown backend {name!r}; expected one of "
            f"{', '.join(BACKEND_NAMES)}"
        )
    if admission not in ADMISSION_NAMES:
        raise ClassificationError(
            f"unknown admission policy {admission!r}; expected one of "
            f"{', '.join(ADMISSION_NAMES)}"
        )
    if capacity is not None and capacity < 1:
        raise ClassificationError("capacity must be >= 1")
    if name == "exact" and capacity is not None:
        raise ClassificationError(
            "the exact backend tracks every flow; --capacity only "
            "applies to sketch backends"
        )
    if name == "exact" and admission != "none":
        raise ClassificationError(
            "the exact backend has no array-table for --admission to gate"
        )
    if name != "exact" and capacity is None:
        raise ClassificationError(
            f"backend {name!r} needs --capacity or --memory-budget"
        )


def make_backend(
    name: str,
    capacity: int | None = None,
    seed: int = 0,
    shards: int = 1,
    admission: str = "none",
    admission_threshold: float = DEFAULT_ADMISSION_THRESHOLD,
) -> AggregationBackend:
    """Build a backend by CLI name.

    ``exact`` takes no capacity and no admission gate; a sketch name
    needs a capacity and builds an :class:`ArraySketchAggregation`
    over that name's candidate table.

    ``admission`` selects the candidate-admission pre-filter:
    ``"bloom"`` gates entry to the candidate table — any of them — on a
    counting-Bloom byte threshold (``admission_threshold``), so tail
    flows stop churning the table.

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
        make_shard(
            name, i, shards, capacity, seed, admission, admission_threshold
        )
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
    admission: str = "none",
    admission_threshold: float = DEFAULT_ADMISSION_THRESHOLD,
) -> AggregationBackend:
    """The inner backend partition ``index`` of a ``shards``-way split owns.

    The split rule lives here and nowhere else, so an in-process
    ``--shards N`` table and the table worker ``index`` of a
    ``--workers N`` fleet builds in its own process are the same
    object: ``ceil(capacity / shards)`` entries, table seed
    ``seed + index`` (distinct seeds decorrelate the hashed and the
    sampled shards' errors), and a Bloom gate seeded with the
    fleet-wide ``seed``. A table too large to allocate is a
    :class:`~repro.errors.ClassificationError` naming it.
    """
    check_backend(name, capacity, admission)
    if name == "exact":
        return ExactAggregation()
    try:
        table = _TABLES[name](-(-capacity // shards), seed + index)
        if admission == "bloom":
            gated_table(table, threshold_bytes=admission_threshold, seed=seed)
    except (MemoryError, ValueError) as error:
        # numpy refuses an array past the address space with ValueError
        raise ClassificationError(
            f"cannot allocate a {name} table of capacity {capacity}: {error}"
        ) from None
    return ArraySketchAggregation(table, name)


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
    costs less per entry, so a budget sized here is an upper bound.

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
