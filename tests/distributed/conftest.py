"""Shared fixtures for the distributed-stack test modules.

One heavy-tailed loopback workload, split across three striped
monitors — the same shape ``test_service.py`` builds for the live
harness — so the checkpoint/chaos suites can compare live answers
against the offline merge of identical summaries.
"""

import numpy as np
import pytest

from repro.distributed import (
    Collector,
    SlotSummary,
    StridedPacketSource,
    elephant_entries,
)
from repro.net.prefix import Prefix
from repro.pipeline import AggregatingSlotSource, StreamingAggregator
from repro.pipeline.sources import PacketBatch
from repro.routing.lpm import FixedLengthResolver

CHAOS_SLOT_SECONDS = 10.0
CHAOS_MONITORS = ("mon-a", "mon-b", "mon-c")


class ChunkedArraySource:
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
                sources=np.zeros(hi - lo, dtype=np.int64),
                destinations=self.dests[lo:hi],
                protocols=np.zeros(hi - lo, dtype=np.int64),
                wire_bytes=self.sizes[lo:hi],
                packets_seen=hi - lo,
            )


@pytest.fixture(scope="session")
def array_source():
    """The chunked in-memory packet source class, injectable per test."""
    return ChunkedArraySource


@pytest.fixture(scope="session")
def chaos_runs():
    """Three monitor runs partitioning one heavy-tailed workload."""
    rng = np.random.default_rng(7)
    count = 6000
    stamps = np.sort(rng.uniform(0, 6 * CHAOS_SLOT_SECONDS, count))
    heavy = rng.random(count) < 0.6
    flow = np.where(
        heavy, rng.integers(0, 4, count), rng.integers(4, 34, count)
    )
    dests = (10 << 24) + flow * (1 << 16) + 1
    sizes = np.where(heavy, 1500, 72)

    def monitor_run(offset, name):
        source = StridedPacketSource(
            ChunkedArraySource(stamps, dests, sizes),
            len(CHAOS_MONITORS),
            offset,
        )
        aggregator = StreamingAggregator(
            FixedLengthResolver(16),
            slot_seconds=CHAOS_SLOT_SECONDS,
            start=0.0,
        )
        slots = AggregatingSlotSource(source, aggregator)
        return [
            SlotSummary.from_frame(
                frame, CHAOS_SLOT_SECONDS, monitor=name
            )
            for frame in slots.slots()
        ]

    return [
        monitor_run(offset, name)
        for offset, name in enumerate(CHAOS_MONITORS)
    ]


@pytest.fixture(scope="session")
def offline():
    """The offline-merge answer function, injectable per test."""
    return offline_answers


def offline_answers(monitor_runs):
    """What the offline merge path answers for the same summaries."""
    collector = Collector(monitor_runs, fill_gaps=True)
    entries = [
        elephant_entries(event.frame, event.verdict)
        for event in collector.events()
    ]
    total = sum(s.total_bytes for s in collector.merged)
    residual = sum(s.residual_bytes for s in collector.merged)
    return {
        "slots": len(entries),
        "elephants_by_slot": entries,
        "residual_fraction": residual / total if total else 0.0,
    }


@pytest.fixture
def golden_run():
    """The run the golden byte literals were recorded from.

    On the parent commit, before summaries held columns: ``to_bytes``
    and ``.npz`` in test_wire_oracle.py, a seal frame and a WAL in
    test_checkpoint.py. A default route, a host route, a zero volume,
    a non-ASCII name, an empty slot and a gap in the slot numbers.
    """
    first = SlotSummary(
        slot=3,
        start=180.0,
        slot_seconds=60.0,
        prefixes=(
            Prefix.parse("10.0.0.0/8"),
            Prefix.parse("192.168.4.0/22"),
            Prefix.parse("0.0.0.0/0"),
            Prefix.parse("203.0.113.7/32"),
        ),
        volumes=np.array([1500.0, 0.0, 2.5e9, 64.125]),
        residual_bytes=12345.5,
        monitor="mon-é",
        sample_rate=50.0,
    )
    second = SlotSummary(
        slot=4,
        start=240.0,
        slot_seconds=60.0,
        prefixes=(),
        volumes=np.zeros(0),
        monitor="mon-é",
    )
    third = SlotSummary(
        slot=6,
        start=360.0,
        slot_seconds=60.0,
        prefixes=(Prefix.parse("172.16.0.0/12"), Prefix.parse("10.0.0.0/8")),
        volumes=np.array([7.0, 1e-3]),
        residual_bytes=1.0,
        monitor="mon-é",
    )
    return [first, second, third]
