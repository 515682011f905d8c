"""Pluggable aggregation backends: exact and bounded-memory sketches.

The streaming aggregator owes its O(flows) state to one design choice:
every prefix that ever carries a byte gets a row and a counter. On a
backbone capture with millions of active prefixes that choice *is* the
memory bill. This module makes the flow table a strategy object that
counts bytes per row per slot — the one number per flow the classifier
reads — and keeps no other per-flow ledger:

- :class:`ExactAggregation` keeps the original semantics — every flow
  tracked exactly, no residual, state O(distinct flows);
- :class:`ArraySketchAggregation` caps the candidate table at
  ``capacity`` entries using the Space-Saving heavy-hitter summary.
  Bytes of untracked flows are conserved in a dedicated *residual
  row* (row 0, labelled ``0.0.0.0/0``), so every emitted slot still
  sums to the traffic that arrived.

It is handed its summary built (the
:class:`~repro.sketches.array_tables.ArraySpaceSaving` table, gated or
not by :func:`~repro.sketches.bloom.gated_table`) and runs one
vectorized probe/admit/evict pass per batch into per-slot accumulators
held as parallel arrays: no Python work per key on the hot path. The
suite holds it to a twin that feeds a dict summary one key at a time
(``tests/oracles.py``).

Row semantics under a sketch: a flow earns a stream row the first time
it is still tracked when a slot closes — surviving one slot boundary is
the admission test, so mice that bounce in and out of the summary
within a slot never inflate the population. Once assigned, a row is
permanent (the positional identity downstream classifiers depend on);
a flow evicted later keeps its row, its subsequent bytes simply fall
into the residual until it is re-admitted.

Every backend holds one :class:`Population`, the prefix → row map
that sharding and the collector hold too; ``backend.prefixes`` is its
:class:`~repro.net.prefix.PrefixColumns`. A flow that earns a row is
appended as a slice of the table that travels in the fourth
``accumulate`` argument (the resolver's own ``PrefixColumns``; a
slot-altitude replay hands over the frame population) — one array step
shared by every backend (:meth:`AggregationBackend._admit`).

Backends also speak the slot altitude: :class:`SketchSlotSource`
filters any :class:`~repro.pipeline.sources.SlotSource` (for instance a
replayed matrix) through a backend, which is how ``repro stream
x.npz --backend ...`` applies a memory bound to a recorded matrix:
``StreamingPipeline(MatrixSlotSource(m), backend=spec.build_backend())``.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.errors import ClassificationError
from repro.hash_index import ABSENT, HashIndex
from repro.net.prefix import Prefix, PrefixColumns
from repro.pipeline.sources import SlotFrame, SlotSource

if TYPE_CHECKING:
    from repro.sketches.array_tables import ArraySpaceSaving

#: How the residual row (untracked, "other" traffic) reads. It is
#: only a label: a real default-route flow (a 0.0.0.0/0 RIB entry, or
#: ``--prefix-length 0``) earns a row of its own, as any prefix does.
RESIDUAL_PREFIX = Prefix(0, 0)


class Population:
    """One stream's prefix → row map; a row, once given, never moves.

    ``prefixes`` is the live :class:`~repro.net.prefix.PrefixColumns`
    frames share by reference. ``residual_row`` is 0 when row 0 is the
    residual label (:data:`RESIDUAL_PREFIX`), else ``None``; no prefix
    is ever looked up onto the label. :meth:`append` numbers prefixes
    the caller knows are new and hashes nothing; :meth:`rows` finds
    prefixes through a :class:`~repro.hash_index.HashIndex` filled on
    first use (and caught up with appended rows on each later one).
    """

    def __init__(self, residual_row: int | None = None) -> None:
        self.residual_row = residual_row
        labels = [] if residual_row is None else [RESIDUAL_PREFIX]
        self.prefixes = PrefixColumns.of(labels)
        self._index = HashIndex()
        # every row below this one is in the index, bar the label
        self._indexed = len(self.prefixes)

    def append(self, table: PrefixColumns) -> None:
        """The next rows, in order, for ``table``'s prefixes (distinct,
        and new to this population)."""
        self.prefixes.extend(table.network, table.length)

    def rows(self, table: PrefixColumns) -> np.ndarray:
        """The row of each of ``table``'s (distinct) prefixes; unseen
        ones are appended in table order."""
        held = len(self.prefixes)
        if self._indexed < held:  # rows appended since the last call
            tail = self.prefixes[self._indexed :]
            self._index.insert(tail.keys(), np.arange(self._indexed, held))
        keys = table.keys()
        rows = self._index.find(keys)
        fresh = np.flatnonzero(rows == ABSENT)
        if fresh.size:
            rows[fresh] = np.arange(held, held + fresh.size)
            self._index.insert(keys[fresh], rows[fresh])
            self.append(table[fresh])
        self._indexed = len(self.prefixes)
        return rows


#: What the byte-budget sizing charges per tracked entry: table slot,
#: key index, pending slot accumulator and row map entry, amortised. A
#: conservative budget constant — the array tables' flat layout costs
#: well under half of it — so a budgeted deployment never under-buys.
TRACKED_ENTRY_BYTES = 320

#: Most partitions a table may be split into: shard indices are sorted
#: as ``uint16`` (numpy's radix path; see
#: :func:`~repro.pipeline.sharded.shard_segments`).
MAX_SHARDS = 1 << 16


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
    vector. ``population`` is the live, append-only
    :class:`Population` and ``prefixes`` its columns — frames share
    them by reference, so row ``i`` means the same flow in every frame
    a run emits, and a :class:`Prefix` is built only for a row somebody
    reads.

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
        self.population = Population(self.residual_row)
        self.prefixes = self.population.prefixes
        #: Flow key → row (-1: none yet); keys are dense resolver rows.
        self._key_row = np.full(0, -1, dtype=np.int64)
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
        first = len(self.prefixes)
        self.population.append(table)
        self._key_row[keys] = np.arange(first, first + keys.size)

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


class ArraySketchAggregation(AggregationBackend):
    """The bounded production backend: batch kernels, flat accumulators.

    ``table`` is a built
    :class:`~repro.sketches.array_tables.ArraySpaceSaving`, gated or not
    (:func:`~repro.sketches.bloom.gated_table`);
    all slot-local accounting — pending bytes and activation order —
    lives in parallel ``capacity``-sized arrays indexed by table slot.
    ``accumulate`` aggregates the batch per unique key, hands the
    aggregate to the table's one-pass batch update, flushes evicted
    slots into the residual scalar, and adds the surviving
    contributions with pure array ops; slot close places the slots
    that earned a row with the same array admission step the exact
    table uses, so no Python loop runs per key or per row anywhere.
    Fed packet by packet, it equals the scalar twin of the test suite.
    """

    name = "space-saving"
    residual_row = 0

    def __init__(self, table: ArraySpaceSaving) -> None:
        super().__init__()
        self.capacity = table.capacity
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
            # the scalar oracle's pending-dict insertion order, so both
            # number rows alike at slot close.
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


#: CLI names accepted by :func:`make_backend`: the exact table, and
#: :class:`ArraySketchAggregation` over the Space-Saving table.
BACKEND_NAMES = ("exact", ArraySketchAggregation.name)

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
    admission_threshold: float | None = None,
) -> AggregationBackend:
    """Build a backend by CLI name.

    ``exact`` takes no capacity and no admission gate;
    ``space-saving`` needs a capacity and builds an
    :class:`ArraySketchAggregation` over a Space-Saving table.

    ``admission`` selects the candidate-admission pre-filter:
    ``"bloom"`` gates entry to the candidate table on a counting-Bloom
    byte threshold (``admission_threshold``;
    ``None`` is the gate's default), so tail flows stop churning the
    table. ``seed`` seeds that gate's hashes; the tables draw none.

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
            name, shards, capacity, seed, admission, admission_threshold
        )
        for _ in range(shards)
    ]
    if shards == 1:
        return inners[0]
    # imported here: sharded sits above this module
    from repro.pipeline.sharded import ShardedAggregation

    return ShardedAggregation(inners)


def make_shard(
    name: str,
    shards: int,
    capacity: int | None = None,
    seed: int = 0,
    admission: str = "none",
    admission_threshold: float | None = None,
) -> AggregationBackend:
    """The inner backend each partition of a ``shards``-way split owns.

    The split rule lives here and nowhere else, so an in-process
    ``--shards N`` table and the table each worker of a ``--workers N``
    fleet builds in its own process are the same object:
    ``ceil(capacity / shards)`` entries and a Bloom gate seeded with
    the fleet-wide ``seed``. Every partition's table is alike; what
    differs is only the keys it is dealt. A table too large to allocate
    is a :class:`~repro.errors.ClassificationError` naming it.
    """
    check_backend(name, capacity, admission)
    if name == "exact":
        return ExactAggregation()
    # imported here: an exact run loads no sketch module
    from repro.sketches import bloom
    from repro.sketches.array_tables import ArraySpaceSaving

    if admission_threshold is None:
        admission_threshold = bloom.DEFAULT_ADMISSION_THRESHOLD
    try:
        table = ArraySpaceSaving(-(-capacity // shards))
        if admission == "bloom":
            bloom.gated_table(
                table, threshold_bytes=admission_threshold, seed=seed
            )
    except (MemoryError, ValueError) as error:
        # numpy refuses an array past the address space with ValueError
        raise ClassificationError(
            f"cannot allocate a {name} table of capacity {capacity}: {error}"
        ) from None
    return ArraySketchAggregation(table)


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


def capacity_for_budget(
    name: str, budget_bytes: int, shards: int = 1, admission: str = "none"
) -> int:
    """Convert a byte budget into a tracked-flow capacity for ``name``.

    Uses the coarse :data:`TRACKED_ENTRY_BYTES` cost model. The
    table's flat layout costs less per entry, so a budget sized here
    is an upper bound. ``admission="bloom"`` also
    charges the gate :func:`~repro.sketches.bloom.gated_table` puts in
    front of each table: its float64 counters, ``DEFAULT_BLOOM_DEPTH``
    rows of ``max(MIN_BLOOM_WIDTH, DEFAULT_BLOOM_WIDTH_FACTOR * K)``.

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
    share = budget_bytes // shards
    per_shard = share // TRACKED_ENTRY_BYTES
    if admission == "bloom":
        from repro.sketches import bloom

        column = bloom.DEFAULT_BLOOM_DEPTH * 8  # a float64 counter per row
        factor = bloom.DEFAULT_BLOOM_WIDTH_FACTOR
        per_shard = share // (TRACKED_ENTRY_BYTES + column * factor)
        if per_shard * factor < bloom.MIN_BLOOM_WIDTH:
            # a table this small gets the fixed minimum-width gate
            gate = column * bloom.MIN_BLOOM_WIDTH
            per_shard = (share - gate) // TRACKED_ENTRY_BYTES
    if per_shard < 1:
        raise ClassificationError(
            f"memory budget {budget_bytes} B across {shards} shard(s) "
            f"is below one tracked entry (~{TRACKED_ENTRY_BYTES} B) for "
            f"backend {name!r}"
        )
    return int(per_shard * shards)
