"""Counting-Bloom admission gate for the array candidate tables.

"Analysis of a Bloom Filter Algorithm via the Supermarket Model"
(PAPERS.md) studies the classic two-stage heavy-hitter filter: a cheap
counting Bloom filter absorbs the long tail of mice, and a flow is
admitted to the (expensive, bounded) candidate table only after its
Bloom-counted bytes cross a threshold. The table then stops churning on
single-packet flows, which is where Space-Saving and Misra–Gries spend
most of their evictions under heavy-tailed traffic.

:class:`CountingBloom` is the counting filter — ``depth`` rows of
``width`` float64 counters, conservative update, fully vectorized.
:class:`BloomGatedTable` wraps any
:class:`~repro.sketches.array_tables._KeyTable` with the admission
policy while keeping the table's batch-update contract intact: keys
already tracked bypass the filter, rejected keys come back with
``NO_SLOT`` so the backend's residual row conserves their bytes, and
``end_slot()`` geometrically decays the counters so the threshold is
(approximately) a per-slot byte rate, not an all-time total.

Memory: the filter costs ``depth * width * 8`` bytes of float64
counters on top of the inner table — counters, not bits, because the
gate counts bytes. The defaults (depth 4, width 8x capacity) put the
filter at roughly 2x the inner table's footprint in exchange for
keeping tail churn out of it entirely; production hardware would use
saturating small integers in SRAM.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ClassificationError
from repro.hash_index import FIBONACCI_MULTIPLIER
from repro.sketches.array_tables import NO_SLOT, BatchUpdate, _KeyTable

#: Golden-ratio multiplier for the per-row key mix (same family as the
#: candidate-table bucket hash, salted per row so rows are independent).
_FIB = FIBONACCI_MULTIPLIER

#: Default admission threshold in (decayed) Bloom-counted bytes: about
#: 44 full-size packets — a flow must show sustained volume, not one
#: lucky packet, before it may occupy a candidate-table entry.
DEFAULT_ADMISSION_THRESHOLD = 65536.0
#: Default counter rows.
DEFAULT_BLOOM_DEPTH = 4
#: Default counters per row, as a multiple of the inner capacity.
DEFAULT_BLOOM_WIDTH_FACTOR = 8
#: Default geometric decay applied to every counter at slot close.
DEFAULT_BLOOM_DECAY = 0.5


class CountingBloom:
    """A vectorized counting Bloom filter over int64 flow keys.

    ``add`` applies *conservative update*: each key's estimate is the
    minimum of its ``depth`` counters, and a counter is only raised,
    never past what the estimate plus the new weight justifies. That
    keeps collision inflation one-sided and small. ``decay``
    multiplies every counter by a factor, turning lifetime totals into
    an exponentially-weighted recent-bytes signal.
    """

    def __init__(
        self, width: int, depth: int = DEFAULT_BLOOM_DEPTH, seed: int = 0
    ) -> None:
        if width < 1:
            raise ClassificationError("bloom width must be >= 1")
        if depth < 1:
            raise ClassificationError("bloom depth must be >= 1")
        self.width = int(width)
        self.depth = int(depth)
        self.seed = int(seed)
        self.counters = np.zeros((self.depth, self.width), dtype=np.float64)
        self._salts = (
            np.uint64(seed) + np.arange(1, self.depth + 1, dtype=np.uint64)
        ) * _FIB

    def _indices(self, keys: np.ndarray) -> np.ndarray:
        """(depth, n) counter indices for ``keys``."""
        mixed = (
            keys.astype(np.uint64)[None, :] ^ self._salts[:, None]
        ) * _FIB
        # fold the high bits in before reducing mod width, so small
        # widths still see the whole hash
        mixed ^= mixed >> np.uint64(33)
        return (mixed % np.uint64(self.width)).astype(np.int64)

    def estimate(self, keys: np.ndarray) -> np.ndarray:
        """Current per-key byte estimates (min over rows)."""
        if keys.size == 0:
            return np.zeros(0, dtype=np.float64)
        idx = self._indices(keys)
        return self.counters[np.arange(self.depth)[:, None], idx].min(axis=0)

    def add(self, keys: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Count ``weights`` bytes against ``keys``; returns the new
        per-key estimates. Keys must be unique within the call."""
        if keys.size == 0:
            return np.zeros(0, dtype=np.float64)
        idx = self._indices(keys)
        rows = np.arange(self.depth)[:, None]
        estimates = self.counters[rows, idx].min(axis=0)
        raised = estimates + weights.astype(np.float64)
        for row in range(self.depth):
            np.maximum.at(self.counters[row], idx[row], raised)
        return raised

    def decay(self, factor: float) -> None:
        """Geometrically age every counter (``factor`` in [0, 1])."""
        if not 0.0 <= factor <= 1.0:
            raise ClassificationError("decay factor must be in [0, 1]")
        self.counters *= factor

    @property
    def fill_fraction(self) -> float:
        """Fraction of counters currently non-zero (load indicator)."""
        return float(np.count_nonzero(self.counters)) / self.counters.size


class BloomGatedTable:
    """Admission gate in front of an array candidate table.

    Implements the :class:`~repro.sketches.array_tables._KeyTable`
    batch contract by delegation: offered keys that the inner table
    already tracks pass straight through; the rest are counted in the
    Bloom filter and only those whose (conservative) estimate reaches
    ``threshold_bytes`` are offered to the inner table. Rejected keys
    get ``NO_SLOT`` in the returned slot map, so the aggregation
    backend routes their bytes to the residual row — byte conservation
    is unchanged, only *who is a candidate* changes.
    """

    def __init__(
        self,
        inner: _KeyTable,
        bloom: CountingBloom,
        threshold_bytes: float = DEFAULT_ADMISSION_THRESHOLD,
        decay: float = DEFAULT_BLOOM_DECAY,
    ) -> None:
        if threshold_bytes < 0:
            raise ClassificationError("admission threshold must be >= 0")
        if not 0.0 <= decay <= 1.0:
            raise ClassificationError("decay factor must be in [0, 1]")
        self.inner = inner
        self.bloom = bloom
        self.threshold_bytes = float(threshold_bytes)
        self.decay = float(decay)
        #: Bytes turned away at the gate (lifetime).
        self.rejected_weight = 0.0

    # -- delegated table surface ---------------------------------------

    @property
    def capacity(self) -> int:
        return self.inner.capacity

    @property
    def key(self) -> np.ndarray:
        return self.inner.key

    @property
    def count(self) -> np.ndarray:
        return self.inner.count

    def __len__(self) -> int:
        return len(self.inner)

    @property
    def total_weight(self) -> float:
        return self.inner.total_weight

    def occupied(self) -> np.ndarray:
        return self.inner.occupied()

    def items(self) -> dict[int, float]:
        return self.inner.items()

    def estimate(self, key: int) -> float:
        return self.inner.estimate(key)

    def top_k(self, k: int) -> list[tuple[int, float]]:
        return self.inner.top_k(k)

    # -- the gate ------------------------------------------------------

    def update_batch(
        self,
        keys: np.ndarray,
        weights: np.ndarray,
        order: np.ndarray | None = None,
    ) -> BatchUpdate:
        tracked = self.inner._probe(keys) != NO_SLOT
        misses = np.flatnonzero(~tracked)
        admitted = tracked.copy()
        if misses.size:
            counted = self.bloom.add(keys[misses], weights[misses])
            passed = counted >= self.threshold_bytes
            admitted[misses[passed]] = True
            self.rejected_weight += float(weights[misses[~passed]].sum())
        offer = np.flatnonzero(admitted)
        sub_order = None
        if order is not None:
            position = np.full(keys.size, NO_SLOT, dtype=np.int64)
            position[offer] = np.arange(offer.size)
            sub_order = position[order]
            sub_order = sub_order[sub_order != NO_SLOT]
        update = self.inner.update_batch(keys[offer], weights[offer], sub_order)
        slots = np.full(keys.size, NO_SLOT, dtype=np.int64)
        slots[offer] = update.slots
        return BatchUpdate(slots=slots, evicted=update.evicted)

    def end_slot(self) -> None:
        """Slot-boundary hook: age the admission counters."""
        self.bloom.decay(self.decay)


def gated_table(
    inner: _KeyTable,
    *,
    threshold_bytes: float,
    width: int | None = None,
    depth: int = DEFAULT_BLOOM_DEPTH,
    decay: float = DEFAULT_BLOOM_DECAY,
    seed: int = 0,
) -> BloomGatedTable:
    """Wrap ``inner`` with a Bloom admission gate sized to it.

    ``width`` defaults to :data:`DEFAULT_BLOOM_WIDTH_FACTOR` x the
    inner capacity (min 1024 counters per row).
    """
    if width is None:
        width = max(1024, DEFAULT_BLOOM_WIDTH_FACTOR * inner.capacity)
    bloom = CountingBloom(width, depth=depth, seed=seed)
    return BloomGatedTable(
        inner, bloom, threshold_bytes=threshold_bytes, decay=decay
    )
