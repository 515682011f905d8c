"""Array-native heavy-hitter candidate tables (batch-update kernels).

The classic heavy-hitter summaries — Space-Saving, Misra–Gries,
Count-Min candidates and Sample-and-Hold — are usually written as dicts
fed one key at a time: the right shape for reference semantics (the
test suite keeps them so, in ``tests/oracles.py``), the wrong shape for
a monitor ingesting millions of packets per second. This module lays
the same summaries out as flat numpy struct-of-arrays with *batch*
update semantics: one vectorized pass admits, updates and evicts a
whole batch of ``(key, weight)`` aggregates at once.

Layout, shared by every table:

- ``key``/``count`` — parallel ``capacity``-sized arrays, one slot per
  tracked flow (``key == -1`` marks a free slot);
- a :class:`~repro.hash_index.HashIndex` mapping keys to slots — the
  one open-addressing index of the code base (Fibonacci hashing,
  vectorized linear probing, load at most 1/4), shared with the
  fixed-length resolver. It has no delete: after any batch that evicts
  it is cleared and refilled from the live slots — cheaper and simpler
  than tombstone bookkeeping at these table sizes.

One kernel, :meth:`_KeyTable.update_batch`, runs every table: it
receives the batch's **unique** keys with their aggregated weights
plus the first-traffic order, probes the index once, lets an optional
admission gate (:class:`~repro.sketches.bloom.BloomGate`) turn away
untracked keys, applies all hits in one array op, fills free slots in
first-traffic order and hands the newcomers left over to the table's
admission rule: a merge tournament plus the scalar last-newcomer rule
for Space-Saving, the exact weighted-decrement chain for Misra–Gries,
an estimate tournament for Count-Min — the two tournaments share
:meth:`_KeyTable._tournament` — and seeded draws in first-traffic order
for Sample-and-Hold. Every table treats the batch as "hits first, then
newcomers"; for single-key batches that *is* the scalar order, so each
table reproduces its scalar reference *exactly*, eviction tie-breaks
included — a scalar summary lets the smallest ``(count, key)`` pair
go, which the batch paths mirror. (Sample-and-Hold never evicts, so
hits and newcomers commute and it is exact for any batch.) The
property suite pins both regimes.

Flat arrays are also cheaply picklable, which is what keeps the
worker-queue overhead of the multi-process runner low.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.errors import ClassificationError
from repro.hash_index import ABSENT, HashIndex
from repro.sketches.count_min import CountMinSketch

if TYPE_CHECKING:
    from repro.sketches.bloom import BloomGate

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


class _KeyTable:
    """Slot storage, the key → slot index and the one batch kernel.

    :meth:`update_batch` is the kernel; a table says only what differs
    — how a batch is counted (:meth:`_count`) and how newcomers enter
    a full table (:meth:`_admit_newcomers`). The base keeps the index
    in step with the slots (insertion on fill, rebuild after eviction).
    """

    #: Admission gate consulted before every update; ``None`` admits
    #: everything (:func:`~repro.sketches.bloom.gated_table` sets one).
    gate: BloomGate | None = None

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
        """Total weight offered so far (past any gate)."""
        return self._total

    @property
    def rejected_weight(self) -> float:
        """Weight the gate turned away before it reached the table."""
        return 0.0 if self.gate is None else self.gate.rejected_weight

    def occupied(self) -> np.ndarray:
        """Slot indices currently holding a tracked key."""
        return np.flatnonzero(self.key != NO_SLOT)

    def items(self) -> dict[int, float]:
        """Tracked ``key -> count`` pairs (slot order)."""
        live = self.occupied()
        return dict(zip(self.key[live].tolist(), self.count[live].tolist()))

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
        """Apply one batch of unique, weight-aggregated keys.

        ``order`` lists the keys in first-traffic order (``None``: as
        given). Keys the gate turns away are untracked: ``NO_SLOT``.
        """
        keys = np.asarray(keys, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if weights.size and float(weights.min()) < 0.0:
            raise ClassificationError("weights must be non-negative")
        slots = self._probe(keys)
        if self.gate is None:
            return self._update(keys, weights, slots, order)
        offer = self.gate.admit(keys, weights, slots)
        if order is not None:
            position = np.full(keys.size, NO_SLOT, dtype=np.int64)
            position[offer] = np.arange(offer.size)
            order = position[order]
            order = order[order != NO_SLOT]
        update = self._update(keys[offer], weights[offer], slots[offer], order)
        slots = np.full(keys.size, NO_SLOT, dtype=np.int64)
        slots[offer] = update.slots
        return BatchUpdate(slots, update.evicted)

    def end_slot(self) -> None:
        """Slot-boundary hook: a gate ages its counters."""
        if self.gate is not None:
            self.gate.end_slot()

    # ------------------------------------------------------------------
    # the kernel's steps
    # ------------------------------------------------------------------

    def _update(
        self,
        keys: np.ndarray,
        weights: np.ndarray,
        slots: np.ndarray,
        order: np.ndarray | None,
    ) -> BatchUpdate:
        """Hits, free-slot fill in first-traffic order, admission of
        the rest into the full table, index rebuild after eviction."""
        values = self._count(keys, weights, slots)
        misses = self._misses(slots, weights, order)
        evicted = _EMPTY_SLOTS
        if misses.size:
            fill, spots, rest = self._fill_free(misses, keys, values)
            slots[fill] = spots
            if rest.size:
                evicted = self._admit_newcomers(slots, keys, values, rest)
        if evicted.size:
            live = self.occupied()
            self._index.clear()
            self._index.insert(self.key[live], live)
            # a key whose slot now holds another key left in this batch
            tracked = np.flatnonzero(slots >= 0)
            stale = tracked[self.key[slots[tracked]] != keys[tracked]]
            slots[stale] = NO_SLOT
        return BatchUpdate(slots, evicted)

    def _count(
        self, keys: np.ndarray, weights: np.ndarray, slots: np.ndarray
    ) -> np.ndarray:
        """Count the batch: hits add their weight. Returns the values
        newcomers are ranked and stored by — here the weights."""
        self._total += float(weights.sum())
        hits = slots >= 0
        if hits.any():
            self.count[slots[hits]] += weights[hits]
        return weights

    def _admit_newcomers(
        self,
        slots: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        rest: np.ndarray,
    ) -> np.ndarray:
        """Newcomers ``rest`` meet a full table: each tournament winner
        replaces the entry it beat. Returns the evicted slots."""
        _, admit, victims = self._tournament(values, rest)
        self.key[victims] = keys[admit]
        self.count[victims] = values[admit]
        slots[admit] = victims
        return victims

    def _tournament(
        self, values: np.ndarray, offers: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pair newcomers by descending value with entries by ascending
        ``(count, key)``; newcomer *j* wins entry *j* when its value
        strictly beats that count.

        The winners are a prefix of that order and none is worth at
        most the table minimum, so only the ``contenders`` above it are
        sorted (their order is the full sort's, restricted): *n*
        newcomers of which *m* are that heavy cost one O(n) compare, an
        O(m log m) sort and an O(K log K) table order. Returns
        ``(contenders, admit, victims)`` — the contenders in descending
        order, the winners, the entries they beat.
        """
        contenders = offers[values[offers] > self.count.min()]
        if contenders.size == 0:
            return contenders, _EMPTY_SLOTS, _EMPTY_SLOTS
        contenders = contenders[np.argsort(-values[contenders], kind="stable")]
        pairs = min(contenders.size, self.capacity)
        smallest = np.lexsort((self.key, self.count))[:pairs]
        beat = values[contenders[:pairs]] > self.count[smallest]
        return contenders, contenders[:pairs][beat], smallest[beat]

    # ------------------------------------------------------------------
    # key index
    # ------------------------------------------------------------------

    def _probe(self, queries: np.ndarray) -> np.ndarray:
        """Slot per query key, ``NO_SLOT`` for untracked (vectorized)."""
        return self._index.find(queries)

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
        self._index.insert(keys[fill], spots)
        return fill, spots, offers[take:]

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
    First the **merge tournament** (:meth:`_KeyTable._tournament`): the
    batch's newcomers, sorted by descending weight, pair against the
    ascending ``(count, key)`` table order, and newcomer *j* replaces
    entry *j* when its weight strictly beats that count — the
    top-K-of-union rule from the mergeable-summaries literature. Each
    admitted newcomer inherits the merge boundary (the largest count or
    weight the union dropped, never below the pre-merge minimum) as its
    over-estimation error. Then the **last newcomer** of the batch runs
    the scalar rule verbatim: it always enters, evicting the current
    minimum and inheriting its count — so a single-key batch *is* the
    scalar update, tie-breaks included, and a stream of them reproduces
    the reference sketch exactly. Estimates stay one-sided
    (``estimate >= true weight`` for every tracked key, over-estimate
    recorded per slot), every untracked key's true weight stays below
    the minimum count, and heavy entries are never displaced by lighter
    pressure. The one classical bound batching relaxes: rejected-weight
    inflation can push the minimum above ``total / capacity``, so the
    worst-case "heavier than total/(K+1) implies tracked" promise holds
    per update, not across adversarial batch mixes.
    """

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self.error = np.zeros(capacity, dtype=np.float64)

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
        floor = float(self.count.min())
        head = rest[:-1]
        contenders, admit, victims = self._tournament(weights, head)
        # the heaviest weight turned away: the first contender that
        # lost, else the heaviest of the newcomers at or below the floor
        top_loser = None
        if admit.size < contenders.size:
            top_loser = float(weights[contenders[admit.size]])
        elif contenders.size < head.size:
            light = weights[head]
            top_loser = float(light[light <= floor].max())
        if admit.size:
            bound = float(self.count[victims[-1]])
            if top_loser is not None:
                bound = max(bound, top_loser)
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
        if top_loser is not None:
            # Rejected weight must still push the minimum up, or a
            # later re-admission could under-cover the key's history
            # (the scalar sketch never rejects, which is what its
            # one-sided guarantee rests on). Raising every count below
            # ``pre-batch min + heaviest rejected weight`` to that
            # level — error inflated in step, so lower bounds keep —
            # restores the invariant "untracked true <= current min".
            level = floor + top_loser
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

    def _admit_newcomers(
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
    Admission is the shared tournament on estimates: the batch's
    newcomers, by descending estimate, pair against the ascending
    stored candidates, and newcomer *j* replaces candidate *j* only
    when its estimate is strictly larger — for a single newcomer
    exactly the scalar beat-the-minimum rule. Estimates are computed
    after the whole batch lands in the sketch, so they upper-bound what
    a per-key monitor would read.
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

    def _count(
        self, keys: np.ndarray, weights: np.ndarray, slots: np.ndarray
    ) -> np.ndarray:
        """Count the batch into the sketch: hits store their estimate,
        and estimates rank the newcomers."""
        self.sketch.update_batch(keys, weights)
        estimates = self.sketch.estimate_batch(keys)
        hits = slots >= 0
        if hits.any():
            self.count[slots[hits]] = estimates[hits]
        return estimates


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
    state therefore equal those of the scalar table (same capacity,
    same seed) after any batch, not only single-key ones.

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

    def _update(
        self,
        keys: np.ndarray,
        weights: np.ndarray,
        slots: np.ndarray,
        order: np.ndarray | None,
    ) -> BatchUpdate:
        self._count(keys, weights, slots)
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
