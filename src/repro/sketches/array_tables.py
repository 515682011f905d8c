"""Space-Saving as a flat array table with batch updates.

The classic Space-Saving summary (Metwally et al.) is usually written
as a dict fed one key at a time: the right shape for reference
semantics (the test suite keeps it so, in ``tests/oracles.py``), the
wrong shape for a monitor ingesting millions of packets per second.
This module lays the same summary out as flat numpy struct-of-arrays
with *batch* update semantics: one vectorized pass admits, updates and
evicts a whole batch of ``(key, weight)`` aggregates at once. It is
the one candidate table of the bounded backends: Ben Basat et al.'s
optimal elephant detector is sampling followed by one such table.

Layout:

- ``key``/``count``/``error`` — parallel ``capacity``-sized arrays,
  one slot per tracked flow (``key == -1`` marks a free slot);
- a :class:`~repro.hash_index.HashIndex` mapping keys to slots — the
  one open-addressing index of the code base (Fibonacci hashing,
  vectorized linear probing, load at most 1/4), shared with the
  fixed-length resolver. It has no delete: after any batch that evicts
  it is cleared and refilled from the live slots — cheaper and simpler
  than tombstone bookkeeping at these table sizes.

One kernel, :meth:`ArraySpaceSaving.update_batch`, receives the
batch's **unique** keys with their aggregated weights plus the
first-traffic order, probes the index once, lets an optional admission
gate (:class:`~repro.sketches.bloom.BloomGate`) turn away untracked
keys, applies all hits in one array op, fills free slots in
first-traffic order and hands the newcomers left over to the full
table's admission rule: a merge tournament plus the scalar
last-newcomer rule. The batch is "hits first, then newcomers"; for
single-key batches that *is* the scalar order, so the table reproduces
its scalar reference *exactly*, eviction tie-breaks included — the
scalar summary lets the smallest ``(count, key)`` pair go, which the
batch path mirrors. The property suite pins both regimes.

Flat arrays are also cheaply picklable, which is what keeps the
worker-queue overhead of the multi-process runner low.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.errors import ClassificationError
from repro.hash_index import ABSENT, HashIndex

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


class ArraySpaceSaving:
    """Batch Space-Saving: vectorized merge admission, scalar tail.

    Hits add their aggregated weight in one array op; new keys fill
    free slots; once the table is full the batch admits in two steps.
    First the **merge tournament** (:meth:`_tournament`): the
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
        self.error = np.zeros(capacity, dtype=np.float64)
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

    def guaranteed(self, key: int) -> float:
        """Lower bound: count minus the slot's inherited error."""
        slot = self._probe(np.asarray([key], dtype=np.int64))[0]
        if slot < 0:
            return 0.0
        return float(self.count[slot] - self.error[slot])

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
        """Hits add their weight; untracked positive-weight offers fill
        free slots in first-traffic order, the rest meet the full
        table's admission rule; the index is rebuilt after eviction."""
        self._total += float(weights.sum())
        hits = slots >= 0
        if hits.any():
            self.count[slots[hits]] += weights[hits]
        if order is None:
            order = np.arange(slots.size)
        misses = order[(slots[order] < 0) & (weights[order] > 0)]
        evicted = _EMPTY_SLOTS
        if misses.size:
            fill, spots, rest = self._fill_free(misses, keys, weights)
            slots[fill] = spots
            if rest.size:
                evicted = self._admit_newcomers(slots, keys, weights, rest)
        if evicted.size:
            live = self.occupied()
            self._index.clear()
            self._index.insert(self.key[live], live)
            # a key whose slot now holds another key left in this batch
            tracked = np.flatnonzero(slots >= 0)
            stale = tracked[self.key[slots[tracked]] != keys[tracked]]
            slots[stale] = NO_SLOT
        return BatchUpdate(slots, evicted)

    # ------------------------------------------------------------------
    # key index
    # ------------------------------------------------------------------

    def _probe(self, queries: np.ndarray) -> np.ndarray:
        """Slot per query key, ``NO_SLOT`` for untracked (vectorized)."""
        return self._index.find(queries)

    def _fill_free(
        self, offers: np.ndarray, keys: np.ndarray, weights: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Place leading ``offers`` into free slots storing ``weights``.

        ``offers`` indexes into ``keys``/``weights`` in first-traffic
        order. Returns ``(fill, spots, rest)``: the offers placed, the
        slots they took, and the offers that did not fit.
        """
        if self._live == self.capacity:
            return _EMPTY_SLOTS, _EMPTY_SLOTS, offers
        free = np.flatnonzero(self.key == NO_SLOT)
        take = min(free.size, offers.size)
        fill = offers[:take]
        spots = free[:take]
        self.key[spots] = keys[fill]
        self.count[spots] = weights[fill]
        self._live += take
        self._index.insert(keys[fill], spots)
        return fill, spots, offers[take:]

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

    def _tournament(
        self, weights: np.ndarray, offers: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pair newcomers by descending weight with entries by ascending
        ``(count, key)``; newcomer *j* wins entry *j* when its weight
        strictly beats that count.

        The winners are a prefix of that order and none is worth at
        most the table minimum, so only the ``contenders`` above it are
        sorted (their order is the full sort's, restricted): *n*
        newcomers of which *m* are that heavy cost one O(n) compare, an
        O(m log m) sort and an O(K log K) table order. Returns
        ``(contenders, admit, victims)`` — the contenders in descending
        order, the winners, the entries they beat.
        """
        contenders = offers[weights[offers] > self.count.min()]
        if contenders.size == 0:
            return contenders, _EMPTY_SLOTS, _EMPTY_SLOTS
        contenders = contenders[
            np.argsort(-weights[contenders], kind="stable")
        ]
        pairs = min(contenders.size, self.capacity)
        smallest = np.lexsort((self.key, self.count))[:pairs]
        beat = weights[contenders[:pairs]] > self.count[smallest]
        return contenders, contenders[:pairs][beat], smallest[beat]


__all__ = [
    "ArraySpaceSaving",
    "BatchUpdate",
    "NO_SLOT",
]
