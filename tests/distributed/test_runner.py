"""Multi-process ingestion: worker-per-shard runner → one collector.

The runner's contract is equivalence with the in-process sharded path
(covered exhaustively by the property suite) plus *operational*
behaviour no property can express: crashes surface as one clean
``ReproError`` with no orphaned processes, stats compose across the
fleet, and empty/degenerate streams do not wedge anything.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.distributed import (
    FaultPlan,
    ParallelIngestResult,
    RowResolver,
    SlotSummary,
    parallel_ingest,
)
from repro.distributed.shm_ring import SHM_NAME_PREFIX
from repro.errors import AddressError, ClassificationError, ReproError
from repro.flows.aggregate import AggregationStats
from repro.net.prefix import Prefix
from repro.pipeline import (
    AggregatingSlotSource,
    ArrayPacketSource,
    PipelineSpec,
    SamplingSpec,
    StreamingAggregator,
    StreamingPipeline,
    make_backend,
)
from repro.routing.lpm import CompiledLpm, FixedLengthResolver

SLOT_SECONDS = 60.0


def packet_arrays(seed=9, packets=4000, flows=30, horizon=240.0):
    rng = np.random.default_rng(seed)
    timestamps = np.sort(rng.uniform(0.0, horizon, packets))
    flow = rng.integers(0, flows, packets)
    destinations = (10 << 24) | (flow << 16) | 5
    sizes = (rng.pareto(1.3, packets) * 250 + 64).clip(64, 1500)
    return timestamps, destinations, sizes.astype(np.int64)


def ingest(workers, backend="exact", capacity=None, **kwargs):
    timestamps, destinations, sizes = packet_arrays()
    source = ArrayPacketSource(
        timestamps, destinations, sizes, chunk_packets=600
    )
    spec = PipelineSpec(workers=workers, backend=backend, capacity=capacity)
    return parallel_ingest(
        source,
        FixedLengthResolver(16),
        spec=spec,
        slot_seconds=SLOT_SECONDS,
        **kwargs,
    )


def elephants_by_start(events):
    return {
        event.frame.start: frozenset(event.elephant_prefixes)
        for event in events
    }


def assert_no_orphans():
    assert multiprocessing.active_children() == []


def assert_no_ring_segments():
    try:
        names = os.listdir("/dev/shm")
    except FileNotFoundError:
        return
    assert [n for n in names if n.startswith(SHM_NAME_PREFIX)] == []


class TestParallelIngest:
    def test_conserves_every_byte(self):
        timestamps, destinations, sizes = packet_arrays()
        result = ingest(workers=2)
        streamed = sum(
            summary.total_bytes for run in result.runs for summary in run
        )
        assert streamed == pytest.approx(float(sizes.sum()), rel=1e-12)
        assert result.stats.bytes_matched == int(sizes.sum())
        assert result.stats.packets_seen == timestamps.size
        assert result.stats.packets_matched == timestamps.size
        assert_no_orphans()

    def test_matches_single_process_sharded_run(self):
        workers = 2
        timestamps, destinations, sizes = packet_arrays()
        source = ArrayPacketSource(
            timestamps, destinations, sizes, chunk_packets=600
        )
        aggregator = StreamingAggregator(
            FixedLengthResolver(16),
            slot_seconds=SLOT_SECONDS,
            backend=make_backend("exact", shards=workers),
        )
        reference = elephants_by_start(
            StreamingPipeline(
                AggregatingSlotSource(source, aggregator)
            ).events()
        )
        merged = elephants_by_start(
            ingest(workers=workers).collector().events()
        )
        assert merged == reference

    def test_sketch_workers_split_capacity_like_shards(self):
        result = ingest(workers=2, backend="space-saving", capacity=10)
        # ceil(10 / 2) entries per worker, never more tracked at once
        for run in result.runs:
            assert max(summary.num_entries for summary in run) <= 5

    def test_worker_runs_are_slot_ordered_summaries(self):
        result = ingest(workers=2)
        for worker_id, run in enumerate(result.runs):
            slots = [summary.slot for summary in run]
            assert slots == sorted(slots)
            assert all(
                summary.monitor == f"worker{worker_id}" for summary in run
            )

    def test_unrouted_packets_counted_at_the_reader(self):
        timestamps, destinations, sizes = packet_arrays()
        # a one-prefix table: everything outside 10.0.0.0/16 unrouted
        resolver = CompiledLpm([Prefix.parse("10.0.0.0/16")])
        source = ArrayPacketSource(timestamps, destinations, sizes)
        result = parallel_ingest(
            source,
            resolver,
            spec=PipelineSpec(workers=2),
            slot_seconds=SLOT_SECONDS,
        )
        routed = int((destinations >> 16 == (10 << 8)).sum())
        assert result.stats.packets_matched == routed
        assert result.stats.packets_unrouted == timestamps.size - routed

    def test_sampled_source_without_chunk_packets(self, array_source):
        # a foreign PacketSource names no chunk_packets; sampled, its
        # wrapper said None and the ring sizing died on `None < 1`
        timestamps, destinations, sizes = packet_arrays()
        plain = array_source(timestamps, destinations, sizes)
        assert not hasattr(plain, "chunk_packets")
        sampling = SamplingSpec(rate=10)
        result = parallel_ingest(
            plain,
            FixedLengthResolver(16),
            spec=PipelineSpec(workers=2, sampling=sampling),
            slot_seconds=SLOT_SECONDS,
        )
        aggregator = StreamingAggregator(
            FixedLengthResolver(16),
            slot_seconds=SLOT_SECONDS,
            backend=make_backend("exact", shards=2),
            sample_rate=sampling.applied_rate,
        )
        twin = StreamingPipeline(
            AggregatingSlotSource(sampling.wrap(plain), aggregator),
            sampling=sampling,
        )
        reference = elephants_by_start(twin.events())
        merged = elephants_by_start(result.collector().events())
        assert merged == reference and any(reference.values())
        assert result.stats == aggregator.stats
        assert result.stats.packets_seen == timestamps.size
        assert result.stats.packets_matched == timestamps.size // 10
        assert_no_orphans()
        assert_no_ring_segments()

    def test_empty_source_produces_no_runs(self):
        source = ArrayPacketSource(
            np.zeros(0), np.zeros(0, np.int64), np.zeros(0, np.int64)
        )
        result = parallel_ingest(
            source,
            FixedLengthResolver(16),
            spec=PipelineSpec(workers=2),
            slot_seconds=SLOT_SECONDS,
        )
        assert all(not run for run in result.runs)
        with pytest.raises(ClassificationError):
            result.collector()
        assert_no_orphans()

    def test_invalid_parameters_fail_before_forking(self):
        source = ArrayPacketSource(
            np.zeros(0), np.zeros(0, np.int64), np.zeros(0, np.int64)
        )
        with pytest.raises(ClassificationError):
            parallel_ingest(
                source, FixedLengthResolver(16), spec=PipelineSpec(workers=0)
            )
        with pytest.raises(ClassificationError):
            parallel_ingest(
                source,
                FixedLengthResolver(16),
                spec=PipelineSpec(workers=2, backend="space-saving"),
            )
        with pytest.raises(ClassificationError):
            parallel_ingest(
                source,
                FixedLengthResolver(16),
                spec=PipelineSpec(workers=2),
                slot_seconds=0.0,
            )
        assert_no_orphans()

    def test_workers_merge_on_the_absolute_grid_cells(self):
        """Each worker floors its first packet onto the absolute slot
        grid, so the merge sees whole cells whoever saw what first."""
        timestamps, destinations, sizes = packet_arrays()
        shifted = parallel_ingest(
            ArrayPacketSource(timestamps + 7.0, destinations, sizes),
            FixedLengthResolver(16),
            spec=PipelineSpec(workers=2),
            slot_seconds=SLOT_SECONDS,
        )
        for run in shifted.runs:
            assert all(s.start % SLOT_SECONDS == 0.0 for s in run)
        starts = [summary.start for summary in shifted.collector().merged]
        assert starts == [0.0, 60.0, 120.0, 180.0, 240.0]


class TestCrashHandling:
    def test_worker_failure_is_one_clean_error(self):
        with pytest.raises(ReproError, match="worker0"):
            ingest(workers=2, faults=FaultPlan.parse("worker:0"))
        assert_no_orphans()
        assert_no_ring_segments()

    def test_hard_worker_crash_detected(self):
        with pytest.raises(ReproError, match="worker 1 exited"):
            ingest(workers=2, faults=FaultPlan.parse("worker:1:hard"))
        assert_no_orphans()
        assert_no_ring_segments()

    def test_reader_failure_is_one_clean_error(self):
        with pytest.raises(ReproError, match="reader"):
            ingest(workers=2, faults=FaultPlan.parse("reader"))
        assert_no_orphans()
        assert_no_ring_segments()


class TestParallelIngestResult:
    @staticmethod
    def summary(start, monitor=""):
        return SlotSummary(
            slot=0,
            start=start,
            slot_seconds=SLOT_SECONDS,
            prefixes=(Prefix.parse("10.0.0.0/16"),),
            volumes=np.array([1000.0]),
            monitor=monitor,
        )

    def test_num_slots_with_derived_axis_floors_from_zero(self):
        result = ParallelIngestResult(
            runs=[[self.summary(0.0)], [self.summary(120.0)]],
            stats=AggregationStats(),
            workers=2,
        )
        assert result.num_slots == 2


class TestBuildShard:
    def test_single_worker_gets_the_whole_backend(self):
        spec = PipelineSpec(backend="space-saving", capacity=8)
        assert spec.build_shard().capacity == 8

    def test_fleet_splits_capacity_like_make_backend(self):
        sharded = make_backend("space-saving", capacity=10, shards=3)
        spec = PipelineSpec(backend="space-saving", capacity=10, workers=3)
        for shard in sharded.shards:
            assert spec.build_shard().capacity == shard.capacity


class TestRowResolver:
    def test_identity_lookup_over_grown_table(self):
        resolver = RowResolver()
        assert len(resolver) == 0
        resolver.extend(
            [Prefix.parse(f"10.{i}.0.0/16").network for i in range(2)],
            [16, 16],
        )
        assert len(resolver) == 2
        keys = resolver.lookup(np.array([1, 0, 1]))
        assert keys.tolist() == [1, 0, 1]
        assert resolver.prefixes[1] == Prefix.parse("10.1.0.0/16")

    def test_table_is_columns_until_a_row_is_read(self):
        # a worker is told every network the reader finds and reads
        # back only the rows its table admits: a sync builds nothing
        wanted = [Prefix.parse(f"10.{i}.0.0/16") for i in range(5)]
        resolver = RowResolver()
        resolver.extend([p.network for p in wanted[:2]], [16, 16])
        resolver.extend(
            np.array([p.network for p in wanted[2:]]), np.array([16, 16, 16])
        )
        assert list(resolver.prefixes) == wanted
        assert resolver.prefixes[-1] == wanted[-1]
        assert resolver.prefixes[1:4] == wanted[1:4]  # the reader's sync slice
        with pytest.raises(IndexError):
            resolver.prefixes[5]
        resolver.extend([1], [16])  # host bits set: refused when read
        assert len(resolver) == 6
        with pytest.raises(AddressError):
            resolver.prefixes[5]


class TestFleetCollector:
    def test_ingest_result_carries_fleet_stats(self):
        timestamps, destinations, sizes = packet_arrays(packets=2000)
        ingest = parallel_ingest(
            ArrayPacketSource(timestamps, destinations, sizes),
            FixedLengthResolver(16),
            spec=PipelineSpec(workers=2),
            slot_seconds=SLOT_SECONDS,
        )
        events = list(ingest.collector().events())
        assert events
        assert ingest.stats.packets_matched == timestamps.size
        assert_no_orphans()
