"""Tests for hash-sharded aggregation.

The guarantees under test: (1) shard routing is deterministic and
total; (2) sharded sketch state is bounded by the summed shard
capacities, and bytes are conserved through the merge; (3) the outer
backend satisfies the population/record contract (permanent rows,
residual row 0 for sketch shards); (4) `make_backend(shards=N)` splits
a total capacity across shards and `capacity_for_budget` never buys
N times the memory.
"""

import numpy as np
import pytest

from repro.errors import ClassificationError
from repro.net import ipv4
from repro.net.prefix import Prefix, PrefixColumns
from repro.pipeline import (
    RESIDUAL_PREFIX,
    PipelineSpec,
    ShardedAggregation,
    StreamingAggregator,
    capacity_for_budget,
    make_backend,
    shard_of,
)
from repro.pipeline.backends import TRACKED_ENTRY_BYTES, ExactAggregation
from repro.pipeline.sharded import MAX_SHARDS, shard_segments
from repro.pipeline.sources import PacketBatch
from repro.routing.lpm import FixedLengthResolver


def ipv4_prefix(key):
    return Prefix((10 << 24) | (int(key) << 8), 24)


def batch(rows):
    timestamps = np.array([r[0] for r in rows], dtype=np.float64)
    destinations = np.array([ipv4.parse_ipv4(r[1]) for r in rows],
                            dtype=np.int64)
    sizes = np.array([r[2] for r in rows], dtype=np.int64)
    return PacketBatch(
        timestamps=timestamps,
        sources=np.zeros(len(rows), dtype=np.int64),
        destinations=destinations,
        protocols=np.zeros(len(rows), dtype=np.int64),
        wire_bytes=sizes,
        packets_seen=len(rows),
    )


def heavy_tailed_rows(num_heavy=5, num_mice=80, num_slots=5,
                      slot_seconds=10.0, seed=9):
    rng = np.random.default_rng(seed)
    rows = []
    for slot in range(num_slots):
        t0 = slot * slot_seconds
        for i in range(num_heavy):
            for _ in range(25):
                rows.append((t0 + rng.uniform(0, slot_seconds),
                             f"10.{i}.0.1", 1500))
        for _ in range(num_mice):
            mouse = rng.integers(0, num_mice)
            rows.append((t0 + rng.uniform(0, slot_seconds),
                         f"172.{16 + mouse // 250}.{mouse % 250}.1", 64))
    rows.sort(key=lambda r: r[0])
    return rows


def run_rows(rows, backend, slot_seconds=10.0, chunk=150):
    aggregator = StreamingAggregator(FixedLengthResolver(24),
                                     slot_seconds=slot_seconds,
                                     backend=backend)
    frames = []
    for lo in range(0, len(rows), chunk):
        frames += aggregator.ingest(batch(rows[lo:lo + chunk]))
    frames += aggregator.finish()
    return aggregator, frames


class TestShardRouting:
    def test_deterministic_and_total(self):
        keys = np.arange(10_000, dtype=np.int64)
        first = shard_of(keys, 7)
        second = shard_of(keys, 7)
        assert np.array_equal(first, second)
        assert first.min() >= 0 and first.max() < 7

    def test_sequential_keys_spread(self):
        # resolver rows are sequential; the Fibonacci hash must not
        # stripe them onto one shard
        counts = np.bincount(shard_of(np.arange(4096), 8), minlength=8)
        assert (counts > 0).all()
        assert counts.max() < 4096 * 0.5

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ClassificationError):
            shard_of(np.arange(4), 0)
        with pytest.raises(ClassificationError):
            shard_segments(np.arange(4), MAX_SHARDS + 1)

    @pytest.mark.parametrize("shards", [1, 2, 7, 300])
    def test_segments_equal_per_shard_masks(self, shards):
        # 300 shards: indices past one byte still sort as uint16
        keys = np.random.default_rng(shards).integers(0, 5000, 20_000)
        order, bounds = shard_segments(keys, shards)
        assert shard_of(keys, shards).dtype == np.int64
        assert bounds[0] == 0 and bounds[-1] == keys.size
        homes = shard_of(keys, shards)
        for index in range(shards):
            mine = order[bounds[index]:bounds[index + 1]]
            assert np.array_equal(mine, np.flatnonzero(homes == index))


class TestConstruction:
    def test_needs_backends(self):
        with pytest.raises(ClassificationError):
            ShardedAggregation([])

    def test_rejects_mixed_kinds(self):
        with pytest.raises(ClassificationError):
            ShardedAggregation([
                ExactAggregation(),
                make_backend("space-saving", capacity=4),
            ])

    def test_rejects_used_backends(self):
        used = ExactAggregation()
        used.accumulate(np.array([1]), np.array([10.0]), np.array([0.0]),
                        PrefixColumns.of([RESIDUAL_PREFIX] * 2))
        used.close_slot()
        with pytest.raises(ClassificationError):
            ShardedAggregation([used, ExactAggregation()])

    def test_rejects_nesting(self):
        inner = ShardedAggregation([ExactAggregation()])
        with pytest.raises(ClassificationError):
            ShardedAggregation([inner])

    def test_capacity_is_summed(self):
        backend = make_backend("space-saving", capacity=10, shards=3)
        assert isinstance(backend, ShardedAggregation)
        # ceil(10 / 3) = 4 per shard, 12 total
        assert [shard.capacity for shard in backend.shards] == [4, 4, 4]
        assert backend.capacity == 12
        assert backend.residual_row == 0

    def test_exact_shards_have_no_capacity(self):
        backend = make_backend("exact", shards=2)
        assert isinstance(backend, ShardedAggregation)
        assert backend.capacity is None
        assert backend.residual_row is None

    def test_make_backend_shard_validation(self):
        with pytest.raises(ClassificationError):
            make_backend("space-saving", capacity=8, shards=0)
        with pytest.raises(ClassificationError):
            make_backend("space-saving", shards=2)
        with pytest.raises(ClassificationError):
            make_backend("exact", capacity=8, shards=2)

    def test_aggregator_takes_spec_built_sharded_backends(self):
        spec = PipelineSpec(backend="space-saving", capacity=8, shards=2)
        aggregator = StreamingAggregator(
            FixedLengthResolver(24), backend=spec.build_backend()
        )
        assert isinstance(aggregator.backend, ShardedAggregation)
        aggregator = StreamingAggregator(
            FixedLengthResolver(24),
            backend=PipelineSpec(shards=3).build_backend(),
        )
        assert isinstance(aggregator.backend, ShardedAggregation)
        assert aggregator.backend.residual_row is None


class TestShardedSketch:
    def test_tracked_state_bounded_by_summed_capacity(self):
        backend = make_backend("space-saving", capacity=12, shards=3)
        rows = heavy_tailed_rows()
        aggregator = StreamingAggregator(FixedLengthResolver(24),
                                         slot_seconds=10.0,
                                         backend=backend)
        for lo in range(0, len(rows), 100):
            aggregator.ingest(batch(rows[lo:lo + 100]))
            assert backend.tracked_flows <= backend.capacity
            for shard in backend.shards:
                assert shard.tracked_flows <= shard.capacity
        aggregator.finish()
        assert backend.peak_tracked <= backend.capacity

    def test_bytes_conserved_through_merge(self):
        rows = heavy_tailed_rows()
        backend = make_backend("misra-gries", capacity=8, shards=4)
        aggregator, frames = run_rows(rows, backend)
        streamed = sum(float(f.rates.sum()) * 10.0 / 8.0 for f in frames)
        assert streamed == pytest.approx(aggregator.stats.bytes_matched)

    @pytest.mark.parametrize("name", ["space-saving", "sample-hold"])
    def test_gate_rejections_are_summed_over_shards(self, name):
        """The sharder reports what its shards' Bloom gates turned
        away (it used to have no such attribute at all), and gated
        shards conserve bytes like bare ones."""
        backend = make_backend(name, capacity=8, shards=2, admission="bloom",
                               admission_threshold=5000.0)
        aggregator, frames = run_rows(heavy_tailed_rows(), backend)
        rejected = [s.admission_rejected_bytes for s in backend.shards]
        assert all(share > 0 for share in rejected)
        assert backend.admission_rejected_bytes == sum(rejected)
        assert make_backend("exact", shards=2).admission_rejected_bytes == 0
        streamed = sum(float(f.rates.sum()) * 10.0 / 8.0 for f in frames)
        assert streamed == pytest.approx(aggregator.stats.bytes_matched)

    def test_residual_row_is_row_zero(self):
        rows = heavy_tailed_rows()
        backend = make_backend("space-saving", capacity=8, shards=2)
        _, frames = run_rows(rows, backend)
        assert backend.prefixes[0] == RESIDUAL_PREFIX
        assert all(frame.residual_row == 0 for frame in frames)

    def test_heavy_flows_earn_rows(self):
        rows = heavy_tailed_rows()
        backend = make_backend("space-saving", capacity=16, shards=4)
        run_rows(rows, backend)
        population = set(map(str, backend.prefixes))
        for i in range(5):
            assert f"10.{i}.0.0/24" in population

    def test_rows_permanent_across_slots(self):
        rows = heavy_tailed_rows()
        backend = make_backend("space-saving", capacity=8, shards=2)
        aggregator = StreamingAggregator(FixedLengthResolver(24),
                                         slot_seconds=10.0,
                                         backend=backend)
        seen: dict[str, int] = {}
        for lo in range(0, len(rows), 100):
            for frame in aggregator.ingest(batch(rows[lo:lo + 100])):
                for row, prefix in enumerate(frame.population):
                    name = str(prefix)
                    assert seen.setdefault(name, row) == row
        aggregator.finish()

    def test_flow_records_merge_and_conserve(self):
        rows = heavy_tailed_rows()
        backend = make_backend("space-saving", capacity=8, shards=3)
        aggregator, frames = run_rows(rows, backend)
        assert backend.prefixes[0] == RESIDUAL_PREFIX
        assert frames[-1].num_flows == backend.num_rows
        total = sum(float(f.rates.sum()) for f in frames) * 10.0 / 8.0
        assert total == pytest.approx(aggregator.stats.bytes_matched)


class TestShardedExact:
    def test_matches_single_exact_run(self):
        rows = heavy_tailed_rows()
        _, reference = run_rows(rows, None)
        backend = make_backend("exact", shards=3)
        _, sharded = run_rows(rows, backend)
        assert len(reference) == len(sharded)
        for ref, got in zip(reference, sharded):
            assert ref.slot == got.slot
            assert list(ref.population) == list(got.population)
            assert np.array_equal(ref.rates, got.rates)

    def test_flow_records_match_single_exact(self):
        rows = heavy_tailed_rows()
        single, reference = run_rows(rows, None)
        sharded, frames = run_rows(rows, make_backend("exact", shards=4))
        assert sharded.prefixes == single.prefixes
        assert len(frames) == len(reference)
        for mine, theirs in zip(frames, reference):
            assert np.array_equal(mine.rates, theirs.rates)


    @pytest.mark.parametrize("name,kwargs", [
        ("exact", {}), ("space-saving", {"capacity": 8}),
    ])
    def test_slot_close_lists_only_new_rows(self, name, kwargs):
        """A slot that adds no row walks no shard's key map; one that
        adds a row lists that row only."""
        backend = make_backend(name, shards=2, **kwargs)
        listed = []
        for shard in backend.shards:
            def row_keys(start=0, inner=shard.row_keys):
                listed.append(inner(start))
                return listed[-1]
            shard.row_keys = row_keys
        table = PrefixColumns.of([ipv4_prefix(key) for key in range(10)])
        keys = np.array([0, 1, 2, 3, 0, 1])
        sizes = np.full(keys.size, 100)
        stamps = np.zeros(keys.size)
        backend.accumulate(keys, sizes, stamps, table)
        first = backend.close_slot()
        assert sorted(key for tail in listed for key in tail) == [0, 1, 2, 3]
        del listed[:]
        backend.accumulate(keys, sizes, stamps, table)
        assert np.array_equal(backend.close_slot(), first)
        assert listed == []
        backend.accumulate(np.array([9, 0]), sizes[:2], stamps[:2], table)
        backend.close_slot()
        assert listed == [[9]]
        assert backend.prefixes[-1] == ipv4_prefix(9)


class TestCapacityForBudgetSharded:
    def test_budget_is_split_not_multiplied(self):
        budget = 64 * TRACKED_ENTRY_BYTES
        total = capacity_for_budget("space-saving", budget)
        sharded = capacity_for_budget("space-saving", budget, shards=4)
        assert total == 64
        # N tables of K/N: the sharded total never exceeds the
        # single-table capacity the same budget buys
        assert sharded <= total
        assert sharded == 64
        backend = make_backend("space-saving", capacity=sharded, shards=4)
        assert sum(s.capacity for s in backend.shards) == sharded

    def test_indivisible_budget_rounds_down(self):
        budget = 10 * TRACKED_ENTRY_BYTES
        assert capacity_for_budget("space-saving", budget, shards=3) == 9

    def test_budget_too_small_for_shards(self):
        budget = 2 * TRACKED_ENTRY_BYTES
        assert capacity_for_budget("space-saving", budget) == 2
        with pytest.raises(ClassificationError):
            capacity_for_budget("space-saving", budget, shards=4)

    def test_rejects_bad_shards(self):
        with pytest.raises(ClassificationError):
            capacity_for_budget("space-saving", 1 << 20, shards=0)
