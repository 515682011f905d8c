"""The shared-memory ring transport, exercised without a fleet.

``shm_ring`` is deliberately dumb — fixed slots, two queues, no
locking beyond queue semantics — so its unit contract is testable with
plain in-process queues and threads: messages round-trip bit-exactly
(zero-copy in the single-slot case), oversized messages split across
slots and reassemble, a full ring blocks the writer instead of
dropping anything, and segments never outlive their creator. The
fleet-level lifecycle (success, crash mid-slot, spawn fallback) rides
the real runner, asserted against the ``/dev/shm`` listing.
"""

import multiprocessing
import os
import queue
import threading

import numpy as np
import pytest

from repro.distributed import FaultPlan, parallel_ingest
from repro.distributed.runner import START_METHOD_ENV
from repro.distributed.shm_ring import (
    SHM_NAME_PREFIX,
    RingConsumer,
    RingWriter,
    ShmRing,
)
from repro.errors import ClassificationError, ReproError
from repro.pipeline import (
    AggregatingSlotSource,
    ArrayPacketSource,
    PipelineSpec,
    StreamingAggregator,
    StreamingPipeline,
    make_backend,
)
from repro.routing.lpm import FixedLengthResolver


def ring_segments() -> list[str]:
    """Live ``/dev/shm`` segments created by this transport."""
    try:
        names = os.listdir("/dev/shm")
    except FileNotFoundError:  # pragma: no cover - non-POSIX shm
        return []
    return [name for name in names if name.startswith(SHM_NAME_PREFIX)]


def columns(count, seed=0, syncs=0):
    """One logical message: three row columns plus a prefix sync."""
    rng = np.random.default_rng(seed)
    return (
        np.sort(rng.uniform(0.0, 100.0, count)),
        rng.integers(0, 50, count).astype(np.int64),
        rng.integers(64, 1500, count).astype(np.int64),
        np.arange(syncs, dtype=np.int64),
        np.full(syncs, 16, dtype=np.int64),
    )


class CountingQueue(queue.Queue):
    """A descriptor queue that counts non-sentinel puts."""

    def __init__(self):
        super().__init__()
        self.descriptors = 0

    def put(self, item, *args, **kwargs):
        if item is not None:
            self.descriptors += 1
        super().put(item, *args, **kwargs)


def make_channel(slots, slot_packets, data_queue=None):
    ring = ShmRing.create(slots, slot_packets)
    free = queue.Queue()
    data = data_queue if data_queue is not None else queue.Queue()
    return ring, RingWriter(ring, free, data), RingConsumer(ring, free, data)


class TestRing:
    def test_single_slot_message_round_trips_zero_copy(self):
        ring, writer, consumer = make_channel(4, 64)
        try:
            sent = columns(50, syncs=3)
            writer.send(*sent)
            writer.close()
            received = list(consumer.batches())
            assert len(received) == 1
            for got, expected in zip(received[0], sent):
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected)
            # the yielded columns alias ring pages — no consumer copy
            assert all(not column.flags.owndata for column in received[0])
        finally:
            ring.destroy()

    def test_messages_keep_order_and_identity(self):
        ring, writer, consumer = make_channel(3, 32)
        try:
            messages = [columns(20, seed=seed, syncs=seed) for seed in range(7)]
            received = []

            def consume():
                received.extend(
                    tuple(column.copy() for column in message)
                    for message in consumer.batches()
                )

            thread = threading.Thread(target=consume, daemon=True)
            thread.start()
            for message in messages:
                writer.send(*message)
            writer.close()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert len(received) == len(messages)
            for got, sent in zip(received, messages):
                for got_column, sent_column in zip(got, sent):
                    assert np.array_equal(got_column, sent_column)
        finally:
            ring.destroy()

    def test_oversized_message_splits_across_slots_and_reassembles(self):
        data = CountingQueue()
        ring, writer, consumer = make_channel(4, 8, data_queue=data)
        try:
            # 50 rows + 5 syncs needs more slots than the ring has, so
            # the writer must overlap with a live consumer
            sent = columns(50, syncs=5)

            def produce():
                writer.send(*sent)
                writer.close()

            thread = threading.Thread(target=produce, daemon=True)
            thread.start()
            received = list(consumer.batches())
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert data.descriptors > 1  # the message really spilled
            assert len(received) == 1  # ...but stayed one logical batch
            for got, expected in zip(received[0], sent):
                assert np.array_equal(got, expected)
        finally:
            ring.destroy()

    def test_minimum_slot_still_makes_progress(self):
        # a one-packet slot holds one row or one sync entry, so this
        # message needs more slots than the whole ring has; the
        # consumer's part-by-part release keeps the writer moving
        ring, writer, consumer = make_channel(2, 1)
        try:
            sent = columns(5, syncs=3)

            def produce():
                writer.send(*sent)
                writer.close()

            thread = threading.Thread(target=produce, daemon=True)
            thread.start()
            received = list(consumer.batches())
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert len(received) == 1
            for got, expected in zip(received[0], sent):
                assert np.array_equal(got, expected)
        finally:
            ring.destroy()

    def test_full_ring_blocks_the_writer_instead_of_dropping(self):
        ring, writer, consumer = make_channel(2, 64)
        try:
            sent_count = []

            def produce():
                for seed in range(5):
                    writer.send(*columns(10, seed=seed))
                    sent_count.append(seed)
                writer.close()

            thread = threading.Thread(target=produce, daemon=True)
            thread.start()
            thread.join(timeout=0.5)
            # both slots in flight: the writer is parked on the free
            # list, not dropping or buffering
            assert thread.is_alive()
            assert len(sent_count) == 2
            received = list(consumer.batches())
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert len(sent_count) == 5
            assert len(received) == 5
        finally:
            ring.destroy()

    def test_create_rejects_degenerate_geometry(self):
        with pytest.raises(ClassificationError):
            ShmRing.create(0, 16)
        with pytest.raises(ClassificationError):
            ShmRing.create(4, 0)

    def test_only_the_creator_unlinks(self):
        ring = ShmRing.create(2, 16)
        name = ring.spec.name
        assert name in ring_segments()
        attached = ShmRing.attach(ring.spec)
        attached.close()
        assert name in ring_segments()  # closing an attachment is local
        attached_again = ShmRing.attach(ring.spec)
        attached_again.destroy()  # non-owner destroy never unlinks
        assert name in ring_segments()
        ring.destroy()
        assert name not in ring_segments()


class Oversized:
    """A source whose batches exceed the ``chunk_packets`` it declares
    (the runner sizes ring slots by that attribute)."""

    def __init__(self, inner, chunk_packets):
        self.inner = inner
        self.chunk_packets = chunk_packets

    def batches(self):
        return self.inner.batches()


def fleet_ingest(
    chunk_packets=500, declared_chunk=None, faults=None, **spec_fields
):
    """Run the fixed trace through a fleet; ``spec_fields`` override
    the two-worker exact :class:`PipelineSpec`. ``declared_chunk``
    sizes the ring slots below the batches the source yields."""
    rng = np.random.default_rng(3)
    packets = 3000
    timestamps = np.sort(rng.uniform(0.0, 180.0, packets))
    destinations = (10 << 24) | (rng.integers(0, 40, packets) << 16) | 9
    sizes = rng.integers(64, 1500, packets)
    source = ArrayPacketSource(
        timestamps, destinations, sizes, chunk_packets=chunk_packets
    )
    if declared_chunk is not None:
        source = Oversized(source, declared_chunk)
    result = parallel_ingest(
        source,
        FixedLengthResolver(16),
        spec=PipelineSpec(**{"workers": 2, **spec_fields}),
        slot_seconds=60.0,
        faults=faults,
    )
    return result, int(sizes.sum())


class TestFleetLifecycle:
    def test_success_leaves_no_segment_behind(self):
        result, total_bytes = fleet_ingest()
        assert result.stats.bytes_matched == total_bytes
        assert ring_segments() == []

    def test_tiny_ring_backpressure_loses_nothing(self):
        result, total_bytes = fleet_ingest(ring_slots=1, chunk_packets=100)
        assert result.stats.bytes_matched == total_bytes
        assert ring_segments() == []

    def test_slot_spill_preserves_batch_boundaries(self, monkeypatch):
        # force every dealt sub-batch to span multiple ring slots; the
        # consumer must reassemble them so sketch-visible batch
        # boundaries (and thus classification) match in-process shards
        packed, sent = [], []
        pack, send = ShmRing.pack, RingWriter.send
        monkeypatch.setattr(
            ShmRing, "pack", lambda *a: packed.append(1) or pack(*a)
        )
        monkeypatch.setattr(
            RingWriter, "send", lambda *a: sent.append(1) or send(*a)
        )
        workers, chunk = 2, 300
        rng = np.random.default_rng(3)
        packets = 3000
        timestamps = np.sort(rng.uniform(0.0, 180.0, packets))
        destinations = (10 << 24) | (rng.integers(0, 40, packets) << 16) | 9
        sizes = rng.integers(64, 1500, packets)
        aggregator = StreamingAggregator(
            FixedLengthResolver(16),
            slot_seconds=60.0,
            backend=make_backend("space-saving", capacity=16, shards=workers),
        )
        pipeline = StreamingPipeline(
            AggregatingSlotSource(
                ArrayPacketSource(
                    timestamps, destinations, sizes, chunk_packets=chunk
                ),
                aggregator,
            )
        )
        reference = {
            event.frame.start: frozenset(event.elephant_prefixes)
            for event in pipeline.events()
        }
        result, _ = fleet_ingest(
            chunk_packets=chunk,
            workers=workers,
            backend="space-saving",
            capacity=16,
            declared_chunk=7,
        )
        merged = {
            event.frame.start: frozenset(event.elephant_prefixes)
            for event in result.collector().events()
        }
        assert merged == reference
        # ~150-row sub-batches through 7-row slots: ~22 slots a send
        assert len(packed) > 10 * len(sent) > 0
        assert ring_segments() == []

    def test_midslot_crash_leaves_no_segment(self):
        with pytest.raises(ReproError, match="worker 0 exited"):
            fleet_ingest(faults=FaultPlan.parse("worker:0:midslot"))
        assert multiprocessing.active_children() == []
        assert ring_segments() == []

    def test_spawn_context_round_trips(self, monkeypatch):
        monkeypatch.setenv(START_METHOD_ENV, "spawn")
        result, total_bytes = fleet_ingest(chunk_packets=1000)
        assert result.stats.bytes_matched == total_bytes
        assert ring_segments() == []
