"""Array-native heavy-hitter candidate tables (batch-update kernels).

The scalar sketches in this package (:mod:`~repro.sketches.space_saving`,
:mod:`~repro.sketches.misra_gries`, :mod:`~repro.sketches.count_min`,
:mod:`~repro.sketches.sample_hold`)
are dict-and-heap objects fed one key at a time — the right shape for
reference semantics and property tests, the wrong shape for a monitor
ingesting millions of packets per second. This module lays the same
summaries out as flat numpy struct-of-arrays with *batch* update
semantics: one vectorized pass admits, updates and evicts a whole
batch of ``(key, weight)`` aggregates at once.

Layout, shared by every table:

- ``key``/``count`` — parallel ``capacity``-sized arrays, one slot per
  tracked flow (``key == -1`` marks a free slot);
- a :class:`~repro.hash_index.HashIndex` mapping keys to slots — the
  one open-addressing index of the code base (Fibonacci hashing,
  vectorized linear probing, load at most 1/4), shared with the
  fixed-length resolver. It has no delete: after any batch that evicts
  it is cleared and refilled from the live slots — cheaper and simpler
  than tombstone bookkeeping at these table sizes.

Batch semantics: each call to :meth:`update_batch` receives the
batch's **unique** keys with their aggregated weights plus the
first-traffic order, applies all hits in one array op, then resolves
admissions (a merge tournament plus the scalar last-newcomer rule for
Space-Saving, the exact weighted-decrement chain for Misra–Gries, an
estimate tournament for Count-Min, seeded draws in first-traffic order
for Sample-and-Hold). Every table treats the batch as
"hits first, then newcomers"; for single-key batches that *is* the
scalar order, so each table reproduces its scalar reference
*exactly*, eviction tie-breaks included — the scalar lazy heaps
resolve ties by smallest ``(count, key)`` pair, which the batch paths
mirror. (Sample-and-Hold never evicts, so hits and newcomers commute
and it is exact for any batch.) The property suite pins both regimes.

Flat arrays are also cheaply picklable, which is what keeps the
worker-queue overhead of the multi-process runner low.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

import numpy as np

from repro.errors import ClassificationError
from repro.hash_index import ABSENT, HashIndex
from repro.sketches.count_min import CountMinSketch

#: Slot value meaning "no entry" — what the key index answers for an
#: untracked key.
NO_SLOT = ABSENT

_EMPTY_SLOTS = np.empty(0, dtype=np.int64)


class BatchUpdate(NamedTuple):
    """What one :meth:`update_batch` call did, in slot coordinates."""

    #: Per offered key: its slot after the batch, ``NO_SLOT`` if the
    #: key is untracked (rejected, or admitted then evicted in-batch).
    slots: np.ndarray
    #: Slots whose occupant at batch start (or an in-batch newcomer)
    #: was removed during the batch, before any reuse. Callers holding
    #: per-slot side state must flush these before reading ``slots``.
    evicted: np.ndarray


def _check_weights(weights: np.ndarray) -> None:
    if weights.size and float(weights.min()) < 0.0:
        raise ClassificationError("weights must be non-negative")


class _KeyTable:
    """Slot storage plus the key → slot index.

    Subclasses implement :meth:`update_batch`; this base owns the slot
    arrays and keeps the index in step with them (insertion on fill,
    rebuild after eviction).
    """

    #: Weight turned away before reaching the table: none, for a bare
    #: table (a :class:`~repro.sketches.bloom.BloomGatedTable` counts).
    rejected_weight = 0.0

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ClassificationError("capacity must be >= 1")
        self.capacity = capacity
        self._index = HashIndex(capacity)
        self.key = np.full(capacity, NO_SLOT, dtype=np.int64)
        self.count = np.zeros(capacity, dtype=np.float64)
        self._live = 0
        self._total = 0.0

    def __len__(self) -> int:
        return self._live

    @property
    def total_weight(self) -> float:
        """Total weight offered so far."""
        return self._total

    def occupied(self) -> np.ndarray:
        """Slot indices currently holding a tracked key."""
        return np.flatnonzero(self.key != NO_SLOT)

    def items(self) -> dict[int, float]:
        """Tracked ``key -> count`` pairs (slot order)."""
        live = self.occupied()
        return dict(
            zip(self.key[live].tolist(), self.count[live].tolist())
        )

    def estimate(self, key: int) -> float:
        """Stored count for ``key`` (0 when untracked)."""
        slot = self._probe(np.asarray([key], dtype=np.int64))[0]
        return float(self.count[slot]) if slot >= 0 else 0.0

    def top_k(self, k: int) -> list[tuple[int, float]]:
        """The ``k`` largest tracked keys as ``(key, count)``."""
        if k < 0:
            raise ClassificationError("k must be non-negative")
        live = self.occupied()
        order = live[np.lexsort((self.key[live], -self.count[live]))]
        chosen = order[:k]
        return list(
            zip(self.key[chosen].tolist(), self.count[chosen].tolist())
        )

    def update_batch(
        self,
        keys: np.ndarray,
        weights: np.ndarray,
        order: np.ndarray | None = None,
    ) -> BatchUpdate:
        """Apply one batch of unique, weight-aggregated keys."""
        raise NotImplementedError

    def end_slot(self) -> None:
        """Slot-boundary hook; a bare table keeps nothing per slot."""

    # ------------------------------------------------------------------
    # key index
    # ------------------------------------------------------------------

    def _probe(self, queries: np.ndarray) -> np.ndarray:
        """Slot per query key, ``NO_SLOT`` for untracked (vectorized)."""
        return self._index.find(queries)

    def _index_insert(self, new_slots: np.ndarray) -> None:
        """Register ``new_slots`` (already holding keys) in the index."""
        self._index.insert(self.key[new_slots], new_slots)

    def _rebuild_index(self) -> None:
        self._index.clear()
        self._index_insert(self.occupied())

    def _fill_free(
        self, offers: np.ndarray, keys: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Place leading ``offers`` into free slots storing ``values``.

        ``offers`` indexes into ``keys``/``values`` in first-traffic
        order. Returns ``(fill, spots, rest)``: the offers placed, the
        slots they took, and the offers that did not fit.
        """
        if offers.size == 0 or self._live == self.capacity:
            return _EMPTY_SLOTS, _EMPTY_SLOTS, offers
        free = np.flatnonzero(self.key == NO_SLOT)
        take = min(free.size, offers.size)
        fill = offers[:take]
        spots = free[:take]
        self.key[spots] = keys[fill]
        self.count[spots] = values[fill]
        self._live += take
        self._index_insert(spots)
        return fill, spots, offers[take:]

    def _final_slots(
        self, slots: np.ndarray, keys: np.ndarray
    ) -> np.ndarray:
        """Invalidate slots reassigned later in the same batch."""
        tracked = slots >= 0
        if tracked.any():
            stale = tracked.copy()
            stale[tracked] = self.key[slots[tracked]] != keys[tracked]
            slots[stale] = NO_SLOT
        return slots

    def _misses(
        self,
        slots: np.ndarray,
        weights: np.ndarray,
        order: np.ndarray | None,
    ) -> np.ndarray:
        """Untracked positive-weight offers, in first-traffic order."""
        if order is None:
            order = np.arange(slots.size)
        untracked = slots[order] < 0
        return order[untracked & (weights[order] > 0)]


class ArraySpaceSaving(_KeyTable):
    """Batch Space-Saving: vectorized merge admission, scalar tail.

    Hits add their aggregated weight in one array op; new keys fill
    free slots; once the table is full the batch admits in two steps.
    First the **merge tournament**: the batch's newcomers, sorted by
    descending weight, pair against the ascending ``(count, key)``
    table order, and newcomer *j* replaces entry *j* when its weight
    strictly beats that count — the top-K-of-union rule from the
    mergeable-summaries literature. Each admitted newcomer inherits
    the merge boundary (the largest count or weight the union dropped,
    never below the pre-merge minimum) as its over-estimation error.
    Then the **last newcomer** of the batch runs the scalar rule
    verbatim: it always enters, evicting the current minimum and
    inheriting its count — so a single-key batch *is* the scalar
    update, tie-breaks included, and a stream of them reproduces the
    reference sketch exactly. Estimates stay one-sided
    (``estimate >= true weight`` for every tracked key, over-estimate
    recorded per slot), every untracked key's true weight stays below
    the minimum count, heavy entries are never displaced by lighter
    pressure, and the whole admission is O(K log K) array work per
    batch regardless of how many newcomers churn through. The one
    classical bound batching relaxes: rejected-weight inflation can
    push the minimum above ``total / capacity``, so the worst-case
    "heavier than total/(K+1) implies tracked" promise holds per
    update, not across adversarial batch mixes.
    """

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self.error = np.zeros(capacity, dtype=np.float64)

    def update_batch(
        self,
        keys: np.ndarray,
        weights: np.ndarray,
        order: np.ndarray | None = None,
    ) -> BatchUpdate:
        keys = np.asarray(keys, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        _check_weights(weights)
        self._total += float(weights.sum())
        slots = self._probe(keys)
        hits = slots >= 0
        if hits.any():
            self.count[slots[hits]] += weights[hits]
        misses = self._misses(slots, weights, order)
        evicted = _EMPTY_SLOTS
        if misses.size:
            fill, spots, rest = self._fill_free(misses, keys, weights)
            if fill.size:
                self.error[spots] = 0.0
                slots[fill] = spots
            if rest.size:
                evicted = self._admit_newcomers(slots, keys, weights, rest)
                self._rebuild_index()
        return BatchUpdate(self._final_slots(slots, keys), evicted)

    def _admit_newcomers(
        self,
        slots: np.ndarray,
        keys: np.ndarray,
        weights: np.ndarray,
        rest: np.ndarray,
    ) -> np.ndarray:
        """Admit ``rest`` newcomers into a full table (see class doc).

        Returns the slots whose occupant was evicted — including a
        merge-admitted newcomer the final scalar step displaces again
        (it stays transient, as it would in the sequential sketch).
        """
        victims = _EMPTY_SLOTS
        losers = _EMPTY_SLOTS
        rank = np.lexsort((self.key, self.count))
        floor = float(self.count[rank[0]])
        head = rest[:-1]
        if head.size:
            by_weight = head[np.argsort(-weights[head], kind="stable")]
            pairs = min(by_weight.size, self.capacity)
            contenders = by_weight[:pairs]
            smallest = rank[:pairs]
            beat = weights[contenders] > self.count[smallest]
            # weights descend while counts ascend, so `beat` is a
            # prefix: once a newcomer loses, all lighter ones do too
            admit = contenders[beat]
            victims = smallest[beat]
            losers = by_weight[admit.size :]
            if admit.size:
                bound = float(self.count[victims[-1]])
                if losers.size:
                    bound = max(bound, float(weights[losers[0]]))
                self.key[victims] = keys[admit]
                self.count[victims] = weights[admit] + bound
                self.error[victims] = bound
                slots[admit] = victims
        # the batch's last newcomer always enters, evicting the current
        # (count, key)-minimum and inheriting its count — the scalar
        # rule verbatim, which keeps single-key batches exact
        last_offer = int(rest[-1])
        min_slot = int(np.lexsort((self.key, self.count))[0])
        minimum = float(self.count[min_slot])
        self.key[min_slot] = int(keys[last_offer])
        self.count[min_slot] = minimum + float(weights[last_offer])
        self.error[min_slot] = minimum
        slots[last_offer] = min_slot
        if losers.size:
            # Rejected weight must still push the minimum up, or a
            # later re-admission could under-cover the key's history
            # (the scalar sketch never rejects, which is what its
            # one-sided guarantee rests on). Raising every count below
            # ``pre-batch min + heaviest rejected weight`` to that
            # level — error inflated in step, so lower bounds keep —
            # restores the invariant "untracked true <= current min".
            level = floor + float(weights[losers[0]])
            low = self.count < level
            if low.any():
                self.error[low] += level - self.count[low]
                self.count[low] = level
        if victims.size:
            if min_slot in victims:
                return victims
            return np.append(victims, min_slot)
        return np.asarray([min_slot], dtype=np.int64)

    def guaranteed(self, key: int) -> float:
        """Lower bound: count minus the slot's inherited error."""
        slot = self._probe(np.asarray([key], dtype=np.int64))[0]
        if slot < 0:
            return 0.0
        return float(self.count[slot] - self.error[slot])


class ArrayMisraGries(_KeyTable):
    """Batch Misra–Gries: hits vectorized, decrements chained exactly.

    Hits add their aggregated weight in one array op; new keys fill
    free slots; once the table is full each remaining newcomer runs
    the scalar weighted-decrement rule in arrival order. The classic
    trick keeps that loop cheap: a decrement subtracts the same amount
    from *every* counter, so the chain carries one running ``offset``
    instead of touching K counters per newcomer — a counter stored as
    ``s`` is live at ``s - offset`` and dies when ``s <= offset``, all
    through a lazy min-heap of plain floats. For single-key batches
    the arithmetic is the scalar rule verbatim. Estimates stay
    one-sided low: every key's undercount is bounded by
    :meth:`error_bound`.
    """

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._decrement_total = 0.0

    def update_batch(
        self,
        keys: np.ndarray,
        weights: np.ndarray,
        order: np.ndarray | None = None,
    ) -> BatchUpdate:
        keys = np.asarray(keys, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        _check_weights(weights)
        self._total += float(weights.sum())
        slots = self._probe(keys)
        hits = slots >= 0
        if hits.any():
            self.count[slots[hits]] += weights[hits]
        misses = self._misses(slots, weights, order)
        evicted = _EMPTY_SLOTS
        if misses.size:
            fill, spots, rest = self._fill_free(misses, keys, weights)
            slots[fill] = spots
            if rest.size:
                evicted = self._decrement_chain(slots, keys, weights, rest)
                self._rebuild_index()
        return BatchUpdate(self._final_slots(slots, keys), evicted)

    def _decrement_chain(
        self,
        slots: np.ndarray,
        keys: np.ndarray,
        weights: np.ndarray,
        rest: np.ndarray,
    ) -> np.ndarray:
        """Run the scalar decrement rule for ``rest`` newcomers.

        Returns the slots whose pre-batch occupant was eroded away.
        """
        offset = 0.0
        heap = list(zip(self.count.tolist(), range(self.capacity)))
        heapq.heapify(heap)
        pop = heapq.heappop
        push = heapq.heappush
        free: list[int] = []
        final: dict[int, tuple[int, float]] = {}
        victims: list[int] = []
        for offer, key, weight in zip(
            rest.tolist(), keys[rest].tolist(), weights[rest].tolist()
        ):
            if free:
                # erosion freed a counter: plain insertion, no
                # decrement — exactly the scalar not-full branch
                slot = free.pop()
                stored = weight + offset
                final[slot] = (key, stored)
                push(heap, (stored, slot))
                slots[offer] = slot
                continue
            minimum = heap[0][0] - offset
            if weight < minimum:
                decrement = weight
                offset += decrement
            else:
                # the minimum dies: assign its stored value as the new
                # offset *exactly*, so the death test below cannot miss
                # it to floating-point rounding (offset + (s - offset)
                # may round strictly below s for non-dyadic weights)
                decrement = minimum
                offset = heap[0][0]
            while heap and heap[0][0] <= offset:
                _, slot = pop(heap)
                if slot in final:
                    del final[slot]
                else:
                    victims.append(slot)
                free.append(slot)
            remainder = weight - decrement
            if remainder > 0.0:
                # remainder > 0 implies the old minimum just died, so
                # a slot is always free here
                slot = free.pop()
                stored = remainder + offset
                final[slot] = (key, stored)
                push(heap, (stored, slot))
                slots[offer] = slot
        self._decrement_total += offset
        self.count -= offset
        dead = np.asarray(free, dtype=np.int64)
        self.key[dead] = NO_SLOT
        self.count[dead] = 0.0
        if final:
            spots = np.fromiter(final, dtype=np.int64, count=len(final))
            entries = [final[slot] for slot in spots.tolist()]
            self.key[spots] = [entry[0] for entry in entries]
            self.count[spots] = [entry[1] - offset for entry in entries]
        self._live = self.capacity - len(free)
        return np.asarray(victims, dtype=np.int64)

    def error_bound(self) -> float:
        """Maximum undercount of any estimate."""
        return self._decrement_total


class ArrayCountMin(_KeyTable):
    """Batch Count-Min candidates over a shared scalar sketch.

    The frequency evidence lives in a
    :class:`~repro.sketches.count_min.CountMinSketch` (same seeded
    hash family as the scalar backend, updated through its vectorized
    batch methods); ``count`` stores each candidate's latest estimate.
    Admission is an estimate tournament: the batch's newcomers, sorted
    by descending estimate, are paired against the ascending stored
    candidates, and newcomer *j* replaces candidate *j* only when its
    estimate is strictly larger — for a single newcomer exactly the
    scalar beat-the-minimum rule. Estimates are computed after the
    whole batch lands in the sketch, so they upper-bound what a
    per-key monitor would read.
    """

    def __init__(
        self,
        capacity: int,
        width: int,
        depth: int,
        seed: int = 0,
    ) -> None:
        super().__init__(capacity)
        self.sketch = CountMinSketch(width=width, depth=depth, seed=seed)

    @property
    def total_weight(self) -> float:
        """Total weight offered so far (the sketch's count)."""
        return self.sketch.total_weight

    def update_batch(
        self,
        keys: np.ndarray,
        weights: np.ndarray,
        order: np.ndarray | None = None,
    ) -> BatchUpdate:
        keys = np.asarray(keys, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        _check_weights(weights)
        self.sketch.update_batch(keys, weights)
        estimates = self.sketch.estimate_batch(keys)
        slots = self._probe(keys)
        hits = slots >= 0
        if hits.any():
            self.count[slots[hits]] = estimates[hits]
        misses = self._misses(slots, weights, order)
        evicted = _EMPTY_SLOTS
        if misses.size:
            fill, spots, rest = self._fill_free(misses, keys, estimates)
            slots[fill] = spots
            if rest.size:
                contenders = rest[
                    np.argsort(-estimates[rest], kind="stable")
                ]
                pairs = min(contenders.size, self.capacity)
                contenders = contenders[:pairs]
                candidates = np.lexsort((self.key, self.count))[:pairs]
                beat = estimates[contenders] > self.count[candidates]
                admit = contenders[beat]
                victims = candidates[beat]
                if victims.size:
                    self.key[victims] = keys[admit]
                    self.count[victims] = estimates[admit]
                    slots[admit] = victims
                    evicted = victims
                    self._rebuild_index()
        return BatchUpdate(self._final_slots(slots, keys), evicted)


class ArraySampleHold(_KeyTable):
    """Batch Sample-and-Hold: one vector draw, unused draws handed back.

    Hits add their aggregated weight in one array op. Held flows are
    never evicted, so the table fills monotonically: while it has room
    the batch's misses are offered in first-traffic order, each against
    one draw of the seeded generator — taken for the whole batch in one
    vector draw — and a sampled flow is held from half its triggering
    weight. The scalar table stops drawing the moment it is full; when
    that happens mid-batch the generator is rewound and only the draws
    the scalar loop would have made are redrawn. Counts *and* generator
    state therefore equal
    :class:`~repro.sketches.sample_hold.SampleAndHold` (``max_entries
    = capacity``, same seed) after any batch, not only single-key ones.

    ``sampling_probability`` is per byte; the default catches a flow
    after ~100 kB in expectation.
    """

    def __init__(
        self, capacity: int, sampling_probability: float = 1e-5, seed: int = 0
    ) -> None:
        super().__init__(capacity)
        if not 0.0 < sampling_probability <= 1.0:
            raise ClassificationError("sampling probability must be in (0, 1]")
        self.sampling_probability = sampling_probability
        self._rng = np.random.default_rng(seed)

    def update_batch(
        self,
        keys: np.ndarray,
        weights: np.ndarray,
        order: np.ndarray | None = None,
    ) -> BatchUpdate:
        keys = np.asarray(keys, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        _check_weights(weights)
        self._total += float(weights.sum())
        slots = self._probe(keys)
        hits = slots >= 0
        if hits.any():
            self.count[slots[hits]] += weights[hits]
        misses = self._misses(slots, weights, order)
        room = self.capacity - self._live
        if misses.size and room:
            state = self._rng.bit_generator.state
            draws = self._rng.random(misses.size)
            unsampled = (1.0 - self.sampling_probability) ** weights[misses]
            sampled = np.flatnonzero(draws < 1.0 - unsampled)
            if sampled.size >= room:
                # the table fills at offer sampled[room - 1]: the
                # scalar loop draws for no offer after that one
                used = int(sampled[room - 1]) + 1
                if used < misses.size:
                    self._rng.bit_generator.state = state
                    self._rng.random(used)
            fill, spots, _ = self._fill_free(
                misses[sampled], keys, weights / 2.0
            )
            slots[fill] = spots
        return BatchUpdate(slots, _EMPTY_SLOTS)


__all__ = [
    "ArrayCountMin",
    "ArrayMisraGries",
    "ArraySampleHold",
    "ArraySpaceSaving",
    "BatchUpdate",
    "NO_SLOT",
]
