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
from repro.pipeline.backends import (
    RESIDUAL_PREFIX,
    AggregationBackend,
    PrefixOf,
)

#: Fibonacci-hash multiplier (2**64 / golden ratio), the classic
#: avalanche step for sequential integer keys — resolver rows are
#: sequential, so a plain modulo would stripe, not shard.
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)
_HASH_SHIFT = np.uint64(33)


def shard_of(keys: np.ndarray, num_shards: int) -> np.ndarray:
    """Deterministic shard index per flow key (Fibonacci hashing)."""
    if num_shards < 1:
        raise ClassificationError("num_shards must be >= 1")
    hashed = keys.astype(np.uint64) * _HASH_MULTIPLIER
    return ((hashed >> _HASH_SHIFT) % np.uint64(num_shards)).astype(np.int64)


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
        self._shard_rows: list[list[int]] = [[] for _ in shards]
        #: Dense key → outer row map mirroring ``_row_of`` (flow keys
        #: are resolver rows, so a flat vector beats the dict walk on
        #: the exact-shard hot path).
        self._key_row = np.full(0, -1, dtype=np.int64)
        if self._sketched:
            self.residual_row = 0
            self.prefixes = [RESIDUAL_PREFIX]
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

    def accumulate(
        self,
        keys: np.ndarray,
        sizes: np.ndarray,
        timestamps: np.ndarray,
        prefix_of: PrefixOf,
    ) -> None:
        if keys.size == 0:
            return
        if not self._sketched:
            # Exact shards: the outer population must number rows in
            # global first-traffic order (interleaved across shards) to
            # stay byte-identical with a single exact backend.
            self._assign_rows(keys, prefix_of)
        homes = shard_of(keys, self.num_shards)
        # one stable sort splits the batch into per-shard segments
        # (time order preserved within each), instead of N full-array
        # mask scans per batch
        order = np.argsort(homes, kind="stable")
        sorted_homes = homes[order]
        keys, sizes, timestamps = (
            keys[order],
            sizes[order],
            timestamps[order],
        )
        boundaries = np.flatnonzero(np.diff(sorted_homes)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [sorted_homes.size]))
        for start, end in zip(starts.tolist(), ends.tolist()):
            shard = self.shards[int(sorted_homes[start])]
            shard.accumulate(
                keys[start:end],
                sizes[start:end],
                timestamps[start:end],
                prefix_of,
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
            rows = np.asarray(
                self._shard_rows[index][: vector.size], dtype=np.int64
            )
            if rows.size:
                # keys are disjoint across shards, but the residual fold
                # above already shows why add-at is the safe idiom here
                np.add.at(merged, rows, vector)
        self.slots_closed += 1
        return merged

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _assign_rows(self, keys: np.ndarray, prefix_of: PrefixOf) -> None:
        """Mirror ExactAggregation's first-traffic row numbering."""
        unique, first_index = np.unique(keys, return_index=True)
        top = int(unique[-1]) + 1
        size = self._key_row.size
        if top > size:
            grown = np.full(max(top, 2 * size), -1, dtype=np.int64)
            grown[:size] = self._key_row
            self._key_row = grown
        known = self._key_row[unique]
        new = known < 0
        if not new.any():
            return
        # only genuinely-new keys reach Python; repeat traffic stays in
        # the vector compare above
        fresh = unique[new]
        arrival = np.argsort(first_index[new])
        for key in fresh[arrival].tolist():
            row = len(self.prefixes)
            self._row_of[key] = row
            self._key_row[key] = row
            self.prefixes.append(prefix_of(key))

    def _extend_map(self, index: int) -> None:
        """Map any new rows of shard ``index`` onto the population."""
        shard = self.shards[index]
        row_map = self._shard_rows[index]
        keys = shard.row_keys()
        if len(keys) == len(row_map):
            return
        offset = 1 if self._sketched else 0
        for inner_index in range(len(row_map), len(keys)):
            key = keys[inner_index]
            row = self._row_of.get(key)
            if row is None:
                # sketch shards surface a key only at slot close; give
                # it its outer row now, in (shard, inner-row) order
                row = len(self.prefixes)
                self._row_of[key] = row
                self.prefixes.append(shard.prefixes[offset + inner_index])
            row_map.append(row)
