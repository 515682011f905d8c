"""Sharded aggregation: one link, N flow tables, merged at slot close.

The backends in :mod:`repro.pipeline.backends` assume one monitor sees
all of a link's traffic. :class:`ShardedAggregation` drops that
assumption: flow keys are hash-partitioned across ``N`` inner backends
(exact or sketch — the structures are mergeable, per Misra–Gries 1982
and the Space-Saving merge literature), each shard accounts its share
independently, and the per-shard candidate tables are merged into one
population when the slot closes. This is the in-process rehearsal for
multi-process ingestion: each shard touches a disjoint key set, so the
inner backends could live in separate processes (or separate monitors)
and only their slot-close summaries need to meet.

Semantics by inner-backend family:

- **exact shards** reproduce single-backend exact aggregation *exactly*
  — per slot, per row, byte for byte, including row numbering (global
  first-traffic order) — because every key's bytes land in exactly one
  shard and the merge adds each shard-local sum to a fresh zero. The
  property suite asserts this.
- **sketch shards** bound tracked state at the *sum* of the shard
  capacities. Untracked bytes fall into each shard's residual and the
  merge conserves them in the shared residual row 0, so merged slots
  still sum to the traffic that arrived.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ClassificationError
from repro.hash_index import FIBONACCI_MULTIPLIER
from repro.net.prefix import PrefixColumns
from repro.pipeline.backends import (
    RESIDUAL_PREFIX,
    AggregationBackend,
    group_by_row,
)

_HASH_SHIFT = np.uint64(33)

#: Shard indices are sorted as ``uint16`` (numpy's radix path).
MAX_SHARDS = 1 << 16


def shard_of(keys: np.ndarray, num_shards: int) -> np.ndarray:
    """Deterministic shard index per flow key (Fibonacci hashing)."""
    if num_shards < 1:
        raise ClassificationError("num_shards must be >= 1")
    hashed = keys.astype(np.uint64) * FIBONACCI_MULTIPLIER
    return ((hashed >> _HASH_SHIFT) % np.uint64(num_shards)).astype(np.int64)


def shard_segments(
    keys: np.ndarray, num_shards: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split one batch into contiguous per-shard segments.

    Returns ``(order, bounds)``: ``order`` is the stable permutation
    that groups packets by home shard (arrival order kept within a
    shard) and shard ``i`` owns positions ``bounds[i]:bounds[i + 1]``
    of the permuted columns. One sort per batch instead of
    ``num_shards`` full-array mask scans; the sort key is a ``uint16``
    copy of the shard indices, which numpy radix-sorts.
    """
    if num_shards > MAX_SHARDS:
        raise ClassificationError(f"at most {MAX_SHARDS} shards")
    homes = shard_of(keys, num_shards)
    order = np.argsort(homes.astype(np.uint16), kind="stable")
    bounds = np.zeros(num_shards + 1, dtype=np.int64)
    np.cumsum(np.bincount(homes, minlength=num_shards), out=bounds[1:])
    return order, bounds


class ShardedAggregation(AggregationBackend):
    """Hash-partition one link's flows across N inner backends.

    The outer object satisfies the full
    :class:`~repro.pipeline.backends.AggregationBackend` contract — a
    live append-only population, permanent rows, a residual row when
    the inners are sketches — while delegating all per-flow counting to
    the shards. ``accumulate`` routes each key to its home shard (same
    key, same shard, always); ``close_slot`` closes every shard and
    folds the shard-local vectors into the merged population.

    Inner backends must be homogeneous (all exact or all sketch) and
    fresh; build them through
    :func:`~repro.pipeline.backends.make_backend` with ``shards=N``.
    """

    name = "sharded"

    def __init__(self, backends: Sequence[AggregationBackend]) -> None:
        shards = list(backends)
        if not shards:
            raise ClassificationError(
                "sharded aggregation needs at least one inner backend"
            )
        kinds = {shard.residual_row is not None for shard in shards}
        if len(kinds) > 1:
            raise ClassificationError(
                "shard backends must be homogeneous: all exact or all sketch"
            )
        for shard in shards:
            if shard.slots_closed or shard.peak_tracked:
                raise ClassificationError(
                    "shard backends must be fresh; aggregation "
                    "backends are single-use"
                )
            if isinstance(shard, ShardedAggregation):
                raise ClassificationError(
                    "sharded backends do not nest; pass the flat list "
                    "of inner backends instead"
                )
        super().__init__()
        self.shards = shards
        self.num_shards = len(shards)
        self._sketched = shards[0].residual_row is not None
        #: Per shard: outer row of inner row ``offset + i`` (the
        #: residual row, when present, is handled separately).
        self._shard_rows = [np.empty(0, dtype=np.int64) for _ in shards]
        if self._sketched:
            self.residual_row = 0
            self.prefixes = PrefixColumns.of([RESIDUAL_PREFIX])
            self.capacity = sum(
                shard.capacity for shard in shards if shard.capacity is not None
            )
        else:
            self.residual_row = None
            self.capacity = None
        self.name = f"sharded-{shards[0].name}"

    # ------------------------------------------------------------------
    # AggregationBackend interface
    # ------------------------------------------------------------------

    @property
    def tracked_flows(self) -> int:
        return sum(shard.tracked_flows for shard in self.shards)

    @property
    def admission_rejected_bytes(self) -> float:
        return sum(shard.admission_rejected_bytes for shard in self.shards)

    def accumulate(
        self,
        keys: np.ndarray,
        sizes: np.ndarray,
        timestamps: np.ndarray,
        table: PrefixColumns,
    ) -> None:
        if keys.size == 0:
            return
        if not self._sketched:
            # Exact shards: the outer population must number rows in
            # global first-traffic order (interleaved across shards) to
            # stay byte-identical with a single exact backend — the
            # same admission step, over the whole batch.
            unique, _, first_index = group_by_row(keys, sizes)
            self._admit_first_traffic(unique, first_index, table)
        order, bounds = shard_segments(keys, self.num_shards)
        keys, sizes, timestamps = (
            keys[order],
            sizes[order],
            timestamps[order],
        )
        for shard, start, end in zip(
            self.shards, bounds[:-1].tolist(), bounds[1:].tolist()
        ):
            if start < end:
                shard.accumulate(
                    keys[start:end],
                    sizes[start:end],
                    timestamps[start:end],
                    table,
                )
        self.peak_tracked = max(self.peak_tracked, self.tracked_flows)

    def close_slot(self) -> np.ndarray:
        vectors = [shard.close_slot() for shard in self.shards]
        for index in range(self.num_shards):
            self._extend_map(index)
        merged = np.zeros(len(self.prefixes))
        for index, vector in enumerate(vectors):
            if vector.size == 0:
                continue
            if self._sketched:
                merged[0] += vector[0]
                vector = vector[1:]
            # a shard maps each of its rows to one outer row of its own
            merged[self._shard_rows[index]] += vector
        self.slots_closed += 1
        return merged

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _extend_map(self, index: int) -> None:
        """Map any new rows of shard ``index`` onto the population."""
        shard = self.shards[index]
        row_map = self._shard_rows[index]
        offset = 1 if self._sketched else 0
        if len(shard.prefixes) - offset == row_map.size:
            return
        keys = np.array(shard.row_keys(row_map.size), dtype=np.int64)
        new = np.flatnonzero(self._rows_of(keys) < 0)
        if new.size:
            # sketch shards surface a key only at slot close; give it
            # its outer row now, in (shard, inner-row) order
            inner = new + (offset + row_map.size)
            self._admit(keys[new], shard.prefixes[inner])
        self._shard_rows[index] = np.concatenate(
            (row_map, self._key_row[keys])
        )
