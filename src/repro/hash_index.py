"""The one open-addressing hash index: ``int64`` key → ``int64`` value.

Two hot paths ask the same question once per packet or per offered
key — "which row holds this integer?": the candidate tables of
:mod:`repro.sketches.array_tables` (flow key → table slot) and
:class:`~repro.routing.lpm.FixedLengthResolver` (network → flow row).
:class:`HashIndex` answers it for a whole batch in a constant number
of array passes: Fibonacci hashing scatters sequential keys across a
power-of-two bucket array, the keys live in the buckets themselves (a
probe is one gather, not a gather through a side table), and
collisions walk right with vectorized linear probing.

The load factor never exceeds 1/4: :meth:`reserve` doubles the bucket
array and re-inserts every entry before it would, so most probes —
also the unsuccessful ones, the common case for a small candidate
table under heavy-tailed traffic — end on their first bucket. There
is no delete; a caller that evicts calls :meth:`clear` and re-inserts
what is live.

Keys are non-negative by contract — ``-1`` (:data:`ABSENT`) marks an
empty bucket and is also what :meth:`find` answers for a key that was
never inserted. :meth:`insert` rejects negative keys.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ClassificationError

#: Fibonacci-hash multiplier (2**64 / golden ratio): the avalanche step
#: for sequential integer keys. Resolver rows and /L network numbers
#: are sequential, so a plain modulo would stripe, not scatter.
FIBONACCI_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)

#: Empty-bucket marker, and the value :meth:`HashIndex.find` reports
#: for a key that is not in the index.
ABSENT = -1

_MIN_BUCKETS = 8


class HashIndex:
    """Growable open-addressing map from int64 keys to int64 values."""

    def __init__(self, capacity: int = 0) -> None:
        self._used = 0
        self._allocate(_MIN_BUCKETS)
        self.reserve(capacity)

    def __len__(self) -> int:
        return self._used

    def _allocate(self, buckets: int) -> None:
        self._keys = np.full(buckets, ABSENT, dtype=np.int64)
        # empty buckets hold ABSENT as their value too, so a probe that
        # ends on one reads its answer from the same gather as a hit
        self._values = np.full(buckets, ABSENT, dtype=np.int64)
        self._mask = np.int64(buckets - 1)
        self._shift = np.uint64(64 - (buckets.bit_length() - 1))

    def _home(self, keys: np.ndarray) -> np.ndarray:
        hashed = keys.view(np.uint64) * FIBONACCI_MULTIPLIER
        return (hashed >> self._shift).view(np.int64)

    def reserve(self, entries: int) -> None:
        """Make room for ``entries`` keys in total at load <= 1/4."""
        buckets = self._keys.size
        while buckets < 4 * entries:
            buckets <<= 1
        if buckets == self._keys.size:
            return
        live = np.flatnonzero(self._keys != ABSENT)
        keys, values = self._keys[live], self._values[live]
        self._allocate(buckets)
        self._used = 0
        self.insert(keys, values)

    def clear(self) -> None:
        """Forget every entry; the bucket array keeps its size."""
        self._keys.fill(ABSENT)
        self._values.fill(ABSENT)
        self._used = 0

    def find(self, keys: np.ndarray) -> np.ndarray:
        """Value per query key, :data:`ABSENT` where it is not held."""
        keys = np.asarray(keys, dtype=np.int64)
        spots = self._home(keys)
        held = self._keys[spots]
        found = self._values[spots]
        # an empty bucket proves absence; a foreign key means the chain
        # continues one bucket to the right — at load <= 1/4 most
        # queries resolve on this first pass
        pending = np.flatnonzero(held != keys)
        pending = pending[held[pending] != ABSENT]
        if pending.size == 0:
            return found
        spots = spots[pending]
        chasing = keys[pending]
        for _ in range(self._keys.size):
            spots = (spots + 1) & self._mask
            held = self._keys[spots]
            done = (held == chasing) | (held == ABSENT)
            found[pending[done]] = self._values[spots[done]]
            if done.all():
                return found
            keep = ~done
            pending = pending[keep]
            spots = spots[keep]
            chasing = chasing[keep]
        raise ClassificationError(
            "hash-index probe did not terminate; index corrupted"
        )

    def insert(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Set ``keys[i] → values[i]``; keys are distinct within a call.

        A key already held has its value replaced.
        """
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        if keys.size == 0:
            return
        if int(keys.min()) < 0:
            raise ClassificationError("hash-index keys must be >= 0")
        self.reserve(self._used + keys.size)
        spots = self._home(keys)
        for _ in range(self._keys.size):
            free = self._keys[spots] == ABSENT
            # concurrent inserts may race for one bucket: write all,
            # then keep only the winners the read-back confirms
            self._keys[spots[free]] = keys[free]
            settled = self._keys[spots] == keys
            self._values[spots[settled]] = values[settled]
            self._used += int(np.count_nonzero(settled & free))
            if settled.all():
                return
            keep = ~settled
            keys = keys[keep]
            values = values[keep]
            spots = (spots[keep] + 1) & self._mask
        raise ClassificationError(
            "hash-index insert did not terminate; index corrupted"
        )


__all__ = ["ABSENT", "FIBONACCI_MULTIPLIER", "HashIndex"]
