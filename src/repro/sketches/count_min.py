"""The Count-Min sketch (Cormode & Muthukrishnan, 2005).

A fixed-memory frequency sketch with one-sided (over-)estimation error
``epsilon * total`` with probability ``1 - delta``. Included as the
hashing-based member of the heavy-hitter baseline family.

Besides the classic one-key-at-a-time interface the sketch speaks
batches: :meth:`CountMinSketch.update_batch` and
:meth:`CountMinSketch.estimate_batch` hash whole key vectors through
the same seeded family, so the array-native aggregation backends and
the scalar reference path read identical counters for identical
streams.

A frequency sketch answers "how much", not "who": to report heavy
hitters it needs a bounded set of candidate keys beside it.
:class:`CountMinCandidates` is the scalar one — the sketch plus a
``capacity``-entry candidate heap, with the ``update`` / ``estimate``
/ ``len`` shape of the counter summaries — and the reference
:class:`~repro.sketches.array_tables.ArrayCountMin` is held to.
"""

from __future__ import annotations

import heapq
import math
from typing import Hashable

import numpy as np

from repro.errors import ClassificationError

#: Large Mersenne prime used for the pairwise-independent hash family.
_PRIME = (1 << 61) - 1


class CountMinSketch:
    """Count-Min sketch with ``depth`` rows and ``width`` columns.

    Hashes are drawn from the classic ``(a * x + b) mod p mod width``
    pairwise-independent family with a seeded generator, so sketches are
    reproducible.
    """

    def __init__(self, width: int, depth: int, seed: int = 0) -> None:
        if width < 1 or depth < 1:
            raise ClassificationError("width and depth must be >= 1")
        self.width = width
        self.depth = depth
        rng = np.random.default_rng(seed)
        self._a = rng.integers(1, _PRIME, size=depth, dtype=np.int64)
        self._b = rng.integers(0, _PRIME, size=depth, dtype=np.int64)
        self._table = np.zeros((depth, width), dtype=float)
        self._total = 0.0

    @classmethod
    def from_error_bounds(
        cls,
        epsilon: float,
        delta: float,
        seed: int = 0,
    ) -> "CountMinSketch":
        """Size the sketch for error ``epsilon·total`` w.p. ``1 − delta``."""
        if not 0 < epsilon < 1 or not 0 < delta < 1:
            raise ClassificationError("epsilon and delta must be in (0, 1)")
        width = math.ceil(math.e / epsilon)
        depth = math.ceil(math.log(1.0 / delta))
        return cls(width=width, depth=depth, seed=seed)

    @property
    def total_weight(self) -> float:
        """Total weight offered so far."""
        return self._total

    def _rows(self, key: Hashable) -> np.ndarray:
        digest = hash(key) & 0x7FFFFFFFFFFFFFFF
        return ((self._a * digest + self._b) % _PRIME) % self.width

    def _columns(self, keys: np.ndarray) -> np.ndarray:
        """Per-row hash columns for a vector of integer keys.

        ``keys`` must be non-negative integers; their digests match
        ``hash(int(key))``, so the batch path touches exactly the
        counters the scalar path would.
        """
        digests = np.asarray(keys, dtype=np.int64) % np.int64(_PRIME)
        mixed = self._a[:, None] * digests[None, :] + self._b[:, None]
        return (mixed % _PRIME) % self.width

    def update(self, key: Hashable, weight: float = 1.0) -> None:
        """Add ``weight`` of ``key``."""
        if weight < 0:
            raise ClassificationError("weights must be non-negative")
        if weight == 0:
            return
        self._total += weight
        columns = self._rows(key)
        self._table[np.arange(self.depth), columns] += weight

    def update_batch(self, keys: np.ndarray, weights: np.ndarray) -> None:
        """Add a vector of weighted integer keys in one pass."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.size and float(weights.min()) < 0.0:
            raise ClassificationError("weights must be non-negative")
        if weights.size == 0:
            return
        self._total += float(weights.sum())
        columns = self._columns(keys)
        for row in range(self.depth):
            np.add.at(self._table[row], columns[row], weights)

    def estimate(self, key: Hashable) -> float:
        """Upper-bound estimate (min over rows)."""
        columns = self._rows(key)
        return float(self._table[np.arange(self.depth), columns].min())

    def estimate_batch(self, keys: np.ndarray) -> np.ndarray:
        """Upper-bound estimates for a vector of integer keys."""
        columns = self._columns(keys)
        rows = np.arange(self.depth)[:, None]
        return self._table[rows, columns].min(axis=0)

    def error_bound(self, confidence_rows: int | None = None) -> float:
        """Expected over-estimate bound ``e / width * total``."""
        del confidence_rows  # single formula regardless of depth
        return math.e / self.width * self._total

    def memory_cells(self) -> int:
        """Number of counters held."""
        return self.width * self.depth


class CountMinCandidates:
    """Count-Min sketch + a ``capacity``-entry candidate heap.

    The sketch carries the frequency estimates; the candidate table
    admits a key when its estimate beats the current minimum candidate,
    found through a lazy min-heap (stale entries are discarded on peek,
    as in :class:`~repro.sketches.space_saving.SpaceSaving`) so each
    untracked key costs O(log capacity), not a table scan. Hash-based,
    so unlike the counter summaries it never forgets a flow's history —
    at the price of one-sided over-estimation.
    """

    def __init__(
        self, capacity: int, width: int, depth: int, seed: int = 0
    ) -> None:
        if capacity < 1:
            raise ClassificationError("capacity must be >= 1")
        self.capacity = capacity
        self.sketch = CountMinSketch(width=width, depth=depth, seed=seed)
        self._candidates: dict[int, float] = {}
        self._heap: list[tuple[float, int]] = []

    def __len__(self) -> int:
        return len(self._candidates)

    def estimate(self, key: int) -> float:
        """A candidate's latest sketch estimate (0 when untracked)."""
        return self._candidates.get(key, 0.0)

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

    def update(self, key: int, weight: float = 1.0) -> None:
        """Add ``weight`` of ``key``; it is a candidate afterwards if
        it was one, the table has room, or it beats the minimum."""
        if weight == 0:
            return
        self.sketch.update(key, weight)
        estimate = self.sketch.estimate(key)
        if key in self._candidates or len(self) < self.capacity:
            self._admit(key, estimate)
            return
        minimum, minimum_estimate = self._peek_minimum()
        if estimate > minimum_estimate:
            del self._candidates[minimum]
            self._admit(key, estimate)
