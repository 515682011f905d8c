"""The Count-Min sketch (Cormode & Muthukrishnan, 2005).

A fixed-memory frequency sketch with one-sided (over-)estimation error
``epsilon * total`` with probability ``1 - delta``.

Besides the classic one-key-at-a-time interface the sketch speaks
batches: :meth:`CountMinSketch.update_batch` and
:meth:`CountMinSketch.estimate_batch` hash whole key vectors through
the same seeded family, so a batch and the same keys offered one at a
time read identical counters.

A frequency sketch answers "how much", not "who": to report heavy
hitters it needs a bounded set of candidate keys beside it, which
:class:`~repro.sketches.array_tables.ArrayCountMin` keeps.
"""

from __future__ import annotations

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

    def error_bound(self) -> float:
        """Expected over-estimate bound ``e / width * total``."""
        return math.e / self.width * self._total

    def memory_cells(self) -> int:
        """Number of counters held."""
        return self.width * self.depth
