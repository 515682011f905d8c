"""Collector tests: merged summaries classify like a single monitor.

The load-bearing property: when monitors jointly see *all* of a link
(any packet at exactly one monitor) and the merge keeps every entry,
the collector's verdicts on real flows equal a single exact monitor's
— the residual row exists but stays empty. Partitioning and
truncation only ever move bytes into the residual, never lose them.
"""

import numpy as np
import pytest

from repro.core.engine import Feature, Scheme
from repro.distributed import (
    Collector,
    MergedSlotSource,
    SlotSummary,
    StridedPacketSource,
    merge_runs,
)
from repro.errors import ClassificationError
from repro.net.prefix import Prefix
from repro.pipeline import (
    RESIDUAL_PREFIX,
    AggregatingSlotSource,
    StreamingAggregator,
    StreamingPipeline,
    make_backend,
)
from repro.pipeline.sources import PacketBatch
from repro.routing.lpm import FixedLengthResolver

SLOT_SECONDS = 10.0


class ArraySource:
    """Chunked packet source over in-memory arrays."""

    def __init__(self, stamps, dests, sizes, chunk=500):
        self.stamps = stamps
        self.dests = dests
        self.sizes = sizes
        self.chunk = chunk

    def batches(self):
        for lo in range(0, self.stamps.size, self.chunk):
            hi = min(lo + self.chunk, self.stamps.size)
            yield PacketBatch(
                timestamps=self.stamps[lo:hi],
                destinations=self.dests[lo:hi],
                wire_bytes=self.sizes[lo:hi],
                packets_seen=hi - lo,
            )


@pytest.fixture(scope="module")
def workload():
    """Heavy-tailed packets: 4 persistent heavies over 30 mice."""
    rng = np.random.default_rng(42)
    count = 8000
    stamps = np.sort(rng.uniform(0, 8 * SLOT_SECONDS, count))
    heavy = rng.random(count) < 0.6
    flow = np.where(
        heavy, rng.integers(0, 4, count), rng.integers(4, 34, count)
    )
    dests = (10 << 24) + flow * (1 << 16) + 1
    sizes = np.where(heavy, 1500, 72)
    return stamps, dests, sizes


def monitor_run(source, backend=None):
    """Stream one monitor's packets into per-slot summaries."""
    aggregator = StreamingAggregator(
        FixedLengthResolver(16),
        slot_seconds=SLOT_SECONDS,
        start=0.0,
        backend=backend,
    )
    slots = AggregatingSlotSource(source, aggregator)
    return [
        SlotSummary.from_frame(frame, SLOT_SECONDS) for frame in slots.slots()
    ]


def elephant_sets(events):
    return [frozenset(event.elephant_prefixes) for event in events]


class TestMergedSlotSource:
    def test_rejects_empty(self):
        with pytest.raises(ClassificationError):
            MergedSlotSource([])

    def test_population_grows_and_rows_are_permanent(self):
        merged = [
            SlotSummary(
                0, 0.0, 60.0, (Prefix.parse("10.0.0.0/16"),), np.array([60.0])
            ),
            SlotSummary(
                1,
                60.0,
                60.0,
                (Prefix.parse("10.1.0.0/16"), Prefix.parse("10.0.0.0/16")),
                np.array([30.0, 15.0]),
                residual_bytes=7.5,
            ),
        ]
        frames = list(MergedSlotSource(merged).slots())
        assert frames[0].num_flows == 2  # residual + first prefix
        assert frames[1].num_flows == 3
        assert frames[1].population[1] == Prefix.parse("10.0.0.0/16")
        # rates: bytes * 8 / slot_seconds; residual lands in row 0
        assert frames[1].rates[0] == pytest.approx(1.0)
        assert frames[1].rates[1] == pytest.approx(2.0)
        assert frames[1].rates[2] == pytest.approx(4.0)

    def test_default_route_entry_earns_its_own_row(self):
        """A tracked 0.0.0.0/0 is a flow: it gets a row past the
        residual label, which carries only the residual bytes."""
        merged = [
            SlotSummary(
                0,
                0.0,
                60.0,
                (RESIDUAL_PREFIX, Prefix.parse("10.0.0.0/16")),
                np.array([30.0, 60.0]),
                residual_bytes=15.0,
            )
        ]
        source = MergedSlotSource(merged)
        frames = list(source.slots())
        assert list(source.prefixes) == [
            RESIDUAL_PREFIX,
            RESIDUAL_PREFIX,
            Prefix.parse("10.0.0.0/16"),
        ]
        assert frames[0].rates.tolist() == [2.0, 4.0, 8.0]


class DictSlotSource:
    """``MergedSlotSource.frame_of`` as a ``dict[Prefix, int]`` row map
    and a per-prefix walk: the oracle the population lookup and
    ``bincount`` are held to. Row 0 is the residual label, never a
    prefix's row."""

    def __init__(self, slot_seconds):
        self.slot_seconds = slot_seconds
        self.prefixes = [RESIDUAL_PREFIX]
        self._row_of = {}

    def rates_of(self, summary):
        for prefix in summary.prefixes:
            if prefix not in self._row_of:
                self._row_of[prefix] = len(self.prefixes)
                self.prefixes.append(prefix)
        rates = np.zeros(len(self.prefixes))
        for prefix, volume in zip(summary.prefixes, summary.volumes.tolist()):
            rates[self._row_of[prefix]] += volume
        rates[0] = summary.residual_bytes
        rates *= 8.0 / self.slot_seconds
        return rates


class TestFrameOfAgainstTheDictWalk:
    def test_fifty_churning_slots(self):
        """Flows come and go, the default route is tracked now and
        then, some entries carry nothing: every frame's rates equal the
        dict walk's with ``==``, the population row for row."""
        rng = np.random.default_rng(23)
        pool = [RESIDUAL_PREFIX] + [
            Prefix((10 << 24) | (row << 8), 24) for row in range(300)
        ]
        source = MergedSlotSource([], slot_seconds=60.0)
        oracle = DictSlotSource(60.0)
        tracked_default = 0
        for slot in range(50):
            # a window sliding over the pool, so rows retire and return
            window = pool[: 40 + 5 * slot] if slot % 3 else pool[slot:]
            size = int(rng.integers(0, min(len(window), 80)))
            picks = rng.permutation(len(window))[:size].tolist()
            volumes = rng.uniform(0.0, 1e9, size) * (rng.random(size) < 0.9)
            summary = SlotSummary(
                slot,
                slot * 60.0,
                60.0,
                [window[pick] for pick in picks],
                volumes,
                residual_bytes=float(rng.uniform(0.0, 1e8)),
            )
            frame = source.frame_of(summary)
            assert frame.rates.tolist() == oracle.rates_of(summary).tolist()
            assert list(frame.population) == oracle.prefixes
            assert frame.residual_row == 0
            assert frame.rates[0] == summary.residual_bytes * (8.0 / 60.0)
            if RESIDUAL_PREFIX in summary.prefixes:
                tracked_default += 1
        assert tracked_default >= 5
        # the default route holds one row of its own beside the label
        assert list(source.prefixes).count(RESIDUAL_PREFIX) == 2
        assert len(source.prefixes) > 150


class TestCollectorEquivalence:
    def test_partitioned_exact_monitors_match_single_monitor(self, workload):
        stamps, dests, sizes = workload
        reference = StreamingPipeline(
            AggregatingSlotSource(
                ArraySource(stamps, dests, sizes),
                StreamingAggregator(
                    FixedLengthResolver(16),
                    slot_seconds=SLOT_SECONDS,
                    start=0.0,
                ),
            )
        )
        truth = elephant_sets(reference.events())

        runs = [
            monitor_run(
                StridedPacketSource(
                    ArraySource(stamps, dests, sizes),
                    3,
                    offset,
                )
            )
            for offset in range(3)
        ]
        collector = Collector(runs)
        merged = elephant_sets(collector.events())

        assert len(truth) == len(merged)
        assert merged == truth
        # nothing was unseen, so the residual carries nothing
        assert collector.series().mean_residual_fraction == 0.0

    def test_truncated_merge_still_finds_heavies(self, workload):
        stamps, dests, sizes = workload
        runs = [
            monitor_run(
                StridedPacketSource(
                    ArraySource(stamps, dests, sizes), 3, offset
                ),
                backend=make_backend("space-saving", capacity=10),
            )
            for offset in range(3)
        ]
        collector = Collector(runs, k=12)
        sets = elephant_sets(collector.events())
        heavies = {Prefix.parse(f"10.{i}.0.0/16") for i in range(4)}
        # skip the first slot (EWMA warm-up) then expect every heavy
        for observed in sets[1:]:
            assert heavies <= observed
        assert collector.series().mean_residual_fraction < 0.25

    def test_byte_conservation_through_collector(self, workload):
        stamps, dests, sizes = workload
        runs = [
            monitor_run(
                StridedPacketSource(
                    ArraySource(stamps, dests, sizes), 2, offset
                ),
                backend=make_backend("space-saving", capacity=8),
            )
            for offset in range(2)
        ]
        merged = merge_runs(runs, k=6)
        total = sum(summary.total_bytes for summary in merged)
        assert total == pytest.approx(float(sizes.sum()))

    def test_events_classify_every_merged_slot(self, workload):
        stamps, dests, sizes = workload
        runs = [monitor_run(ArraySource(stamps, dests, sizes))]
        collector = Collector(
            runs, k=16, scheme=Scheme.CONSTANT_LOAD, feature=Feature.SINGLE
        )
        events = list(collector.events())
        assert [event.frame.slot for event in events] == [
            summary.slot for summary in collector.merged
        ]
        for event in events:
            assert event.frame.population[0] == RESIDUAL_PREFIX
            assert not event.verdict.elephant_mask[0]
            assert event.verdict.latent_heat is None
        assert collector.series().counts.size == collector.num_slots
        assert "single" in collector.pipeline().label


class TestStridedPartition:
    def test_partition_is_exact(self, workload):
        stamps, dests, sizes = workload
        base = ArraySource(stamps, dests, sizes)
        seen = []
        for offset in range(4):
            for piece in StridedPacketSource(base, 4, offset).batches():
                seen.extend(piece.timestamps.tolist())
        assert sorted(seen) == stamps.tolist()

    def test_validation(self, workload):
        stamps, dests, sizes = workload
        base = ArraySource(stamps, dests, sizes)
        with pytest.raises(ClassificationError):
            StridedPacketSource(base, 0, 0)
        with pytest.raises(ClassificationError):
            StridedPacketSource(base, 2, 2)

    def test_skipped_records_distributed_across_monitors(self):
        """packets_seen keeps its contract: summed over the fleet it
        equals the capture's scanned-record count, skipped included."""

        class SkippySource:
            def batches(self):
                yield PacketBatch(
                    timestamps=np.arange(10, dtype=float),
                    destinations=np.full(10, 10 << 24, dtype=np.int64),
                    wire_bytes=np.full(10, 100, dtype=np.int64),
                    packets_seen=15,  # 5 non-IPv4 records were scanned
                )

        seen = skipped = 0
        for offset in range(3):
            tap = StridedPacketSource(SkippySource(), 3, offset)
            for piece in tap.batches():
                seen += piece.packets_seen
                skipped += piece.packets_skipped
        assert seen == 15
        assert skipped == 5
