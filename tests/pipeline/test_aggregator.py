"""Tests for the streaming aggregator (dynamic population, slot emission)."""

import numpy as np
import pytest

from repro.errors import ClassificationError
from repro.flows.aggregate import FlowAggregator
from repro.flows.records import MAX_GAP_CELLS, TimeAxis
from repro.net import ipv4
from repro.net.prefix import Prefix
from repro.pipeline.aggregator import StreamingAggregator
from repro.pipeline.backends import make_backend
from repro.pipeline.sources import PacketBatch
from repro.routing.aspath import AsPath, AsTier, AutonomousSystem
from repro.routing.lpm import CompiledLpm, FixedLengthResolver
from repro.routing.rib import Route, RoutingTable


def make_table(*texts):
    routes = []
    for index, text in enumerate(texts):
        asn = AutonomousSystem(65000 + index, AsTier.STUB)
        routes.append(Route(Prefix.parse(text), AsPath((asn.number,)), asn))
    return RoutingTable(routes)


def batch(rows):
    """Build a PacketBatch from ``(timestamp, destination, size)`` rows."""
    timestamps = np.array([r[0] for r in rows], dtype=np.float64)
    destinations = np.array(
        [ipv4.parse_ipv4(r[1]) for r in rows], dtype=np.int64
    )
    sizes = np.array([r[2] for r in rows], dtype=np.int64)
    return PacketBatch(timestamps, destinations, sizes, len(rows))


def aggregator_of(*texts, **kwargs):
    """A streaming aggregator over a table of ``texts``."""
    return StreamingAggregator(make_table(*texts), **kwargs)


class TestStreamingAggregator:
    def test_emits_completed_slots(self):
        aggregator = aggregator_of("10.0.0.0/8", slot_seconds=100.0)
        rows = [
            (10.0, "10.0.0.1", 1000),
            (150.0, "10.0.0.2", 500),  # slot 1 opens -> slot 0 emits
        ]
        frames = aggregator.ingest(batch(rows))
        assert len(frames) == 1
        assert frames[0].slot == 0
        assert frames[0].rates[0] == pytest.approx(80.0)
        final = aggregator.finish()
        assert len(final) == 1
        assert final[0].slot == 1
        assert final[0].rates[0] == pytest.approx(40.0)

    def test_population_grows_with_traffic(self):
        aggregator = aggregator_of(
            "10.0.0.0/8", "20.0.0.0/8", slot_seconds=100.0
        )
        aggregator.ingest(batch([(0.0, "10.0.0.1", 100)]))
        assert aggregator.prefixes == [Prefix.parse("10.0.0.0/8")]
        frames = aggregator.ingest(batch([(120.0, "20.0.0.1", 100)]))
        # slot 0's frame has the population as of slot 0 completion
        assert frames[0].num_flows == 1
        final = aggregator.finish()
        assert final[0].num_flows == 2
        # positional identity: row 0 is still the first-seen prefix
        assert aggregator.prefixes[0] == Prefix.parse("10.0.0.0/8")
        assert aggregator.prefixes[1] == Prefix.parse("20.0.0.0/8")

    def test_gap_slots_emit_empty_frames(self):
        aggregator = aggregator_of("10.0.0.0/8", slot_seconds=10.0)
        aggregator.ingest(batch([(0.0, "10.0.0.1", 100)]))
        frames = aggregator.ingest(batch([(35.0, "10.0.0.1", 200)]))
        assert [f.slot for f in frames] == [0, 1, 2]
        assert frames[1].rates.sum() == 0.0
        assert frames[2].rates.sum() == 0.0

    def test_start_aligned_to_grid(self):
        aggregator = aggregator_of("10.0.0.0/8", slot_seconds=60.0)
        aggregator.ingest(batch([(125.0, "10.0.0.1", 100)]))
        assert aggregator.start == pytest.approx(120.0)
        (frame,) = aggregator.finish()
        assert frame.slot == 0
        assert frame.start == pytest.approx(120.0)

    def test_late_packets_dropped_and_counted(self):
        aggregator = aggregator_of("10.0.0.0/8", slot_seconds=10.0, start=0.0)
        aggregator.ingest(batch([(25.0, "10.0.0.1", 100)]))
        aggregator.ingest(batch([(5.0, "10.0.0.1", 100)]))  # slot 0: late
        assert aggregator.stats.packets_outside_axis == 1
        assert aggregator.stats.packets_matched == 1

    def test_unrouted_counted(self):
        aggregator = aggregator_of("10.0.0.0/8", slot_seconds=10.0)
        rows = [(0.0, "10.0.0.1", 100), (1.0, "192.0.2.1", 100)]
        aggregator.ingest(batch(rows))
        assert aggregator.stats.packets_unrouted == 1
        assert aggregator.stats.packets_matched == 1

    def test_fixed_length_resolver_population(self):
        aggregator = StreamingAggregator(
            FixedLengthResolver(16), slot_seconds=10.0
        )
        rows = [
            (0.0, "10.1.2.3", 100),
            (1.0, "10.1.9.9", 50),
            (2.0, "10.2.0.1", 10),
        ]
        aggregator.ingest(batch(rows))
        (frame,) = aggregator.finish()
        assert aggregator.prefixes == [
            Prefix.parse("10.1.0.0/16"),
            Prefix.parse("10.2.0.0/16"),
        ]
        assert frame.rates[0] == pytest.approx(150 * 8 / 10.0)

    def test_matches_batch_aggregator(self):
        """Same packets, same slots: streaming == FlowAggregator."""
        table = make_table("10.0.0.0/8", "10.1.0.0/16", "172.16.0.0/12")
        rng = np.random.default_rng(5)
        rows = [
            (float(t), f"10.{int(a)}.{int(b)}.1", int(s))
            for t, a, b, s in zip(
                np.sort(rng.uniform(0.0, 400.0, 300)),
                rng.integers(0, 4, 300),
                rng.integers(0, 4, 300),
                rng.integers(64, 1500, 300),
            )
        ]
        axis = TimeAxis(0.0, 100.0, 4)
        reference = FlowAggregator(table, axis)
        for timestamp, destination, size in rows:
            packet = {
                "timestamp": timestamp,
                "destination": ipv4.parse_ipv4(destination),
                "wire_bytes": size,
            }
            reference.add(type("P", (), packet)())
        matrix = reference.to_rate_matrix()

        streaming = StreamingAggregator(table, slot_seconds=100.0, start=0.0)
        frames = streaming.ingest(batch(rows)) + streaming.finish()
        assert len(frames) == 4
        for prefix in matrix.prefixes:
            row = streaming.prefixes.index(prefix)
            got = np.array(
                [
                    frame.rates[row] if row < frame.num_flows else 0.0
                    for frame in frames
                ]
            )
            assert np.allclose(got, matrix.rates[matrix.index_of(prefix)])
        stats, expected = streaming.stats, reference.stats
        assert stats.packets_matched == expected.packets_matched
        assert stats.bytes_matched == expected.bytes_matched

    def test_late_start_axis_counts_only_emitted_frames(self):
        """Explicit start with silent lead-in slots: the axis begins at
        the first emitted frame, not slot 0."""
        aggregator = aggregator_of("10.0.0.0/8", slot_seconds=60.0, start=0.0)
        frames = aggregator.ingest(batch([(185.0, "10.0.0.1", 100)]))
        frames += aggregator.finish()
        assert [f.slot for f in frames] == [3]
        assert aggregator.slots_emitted == 1
        axis = aggregator.axis()
        assert axis.start == pytest.approx(180.0)
        assert axis.num_slots == 1

    def test_axis_after_finish(self):
        aggregator = aggregator_of("10.0.0.0/8", slot_seconds=10.0)
        with pytest.raises(ClassificationError):
            aggregator.axis()
        rows = [(0.0, "10.0.0.1", 100), (15.0, "10.0.0.1", 100)]
        aggregator.ingest(batch(rows))
        aggregator.finish()
        axis = aggregator.axis()
        assert axis.num_slots == 2
        assert axis.slot_seconds == 10.0

    def test_ingest_after_finish_rejected(self):
        aggregator = aggregator_of("10.0.0.0/8", slot_seconds=10.0)
        aggregator.finish()
        with pytest.raises(ClassificationError):
            aggregator.ingest(batch([(0.0, "10.0.0.1", 100)]))

    def test_routing_table_compiled_on_entry(self):
        aggregator = aggregator_of("10.0.0.0/8", slot_seconds=10.0)
        assert isinstance(aggregator.resolver, CompiledLpm)

    def test_bad_slot_seconds_rejected(self):
        with pytest.raises(ClassificationError):
            aggregator_of("10.0.0.0/8", slot_seconds=0.0)


class TestOutOfOrderAccounting:
    """``packets_outside_axis`` semantics under out-of-order arrival.

    The contract: a packet is "outside the axis" exactly when its slot
    precedes the currently *open* slot — those bytes were already
    emitted and a one-pass monitor cannot revise history. Reordering
    *within* the open horizon (same slot, or a not-yet-emitted later
    slot in the same batch) is tolerated and counted normally.
    """

    def test_within_open_slot_reorder_is_not_outside(self):
        aggregator = aggregator_of("10.0.0.0/8", slot_seconds=100.0, start=0.0)
        aggregator.ingest(batch([(50.0, "10.0.0.1", 100)]))
        aggregator.ingest(batch([(10.0, "10.0.0.2", 200)]))  # same slot
        assert aggregator.stats.packets_outside_axis == 0
        assert aggregator.stats.packets_matched == 2
        (frame,) = aggregator.finish()
        assert frame.rates.sum() == pytest.approx(300 * 8 / 100.0)

    def test_in_batch_reorder_across_open_slots_is_tolerated(self):
        """A batch carrying [slot 2, slot 1] packets: both accepted."""
        aggregator = aggregator_of("10.0.0.0/8", slot_seconds=10.0, start=0.0)
        rows = [
            (25.0, "10.0.0.1", 100),  # slot 2
            (15.0, "10.0.0.1", 200),  # slot 1, earlier but unemitted
        ]
        frames = aggregator.ingest(batch(rows))
        frames += aggregator.finish()
        assert aggregator.stats.packets_outside_axis == 0
        assert [f.slot for f in frames] == [1, 2]
        assert frames[0].rates[0] == pytest.approx(200 * 8 / 10.0)
        assert frames[1].rates[0] == pytest.approx(100 * 8 / 10.0)

    def test_late_bytes_excluded_from_frames_and_records(self):
        aggregator = aggregator_of("10.0.0.0/8", slot_seconds=10.0, start=0.0)
        aggregator.ingest(batch([(25.0, "10.0.0.1", 100)]))  # opens slot 2
        rows = [
            (5.0, "10.0.0.1", 999),  # slot 0: late, dropped
            (26.0, "10.0.0.1", 100),  # slot 2: fine
        ]
        aggregator.ingest(batch(rows))
        frames = aggregator.finish()
        assert aggregator.stats.packets_outside_axis == 1
        assert aggregator.stats.packets_matched == 2
        assert aggregator.stats.bytes_matched == 200
        total = sum(float(f.rates.sum()) for f in frames)
        assert total == pytest.approx(200 * 8 / 10.0)

    def test_late_packets_counted_across_many_batches(self):
        aggregator = aggregator_of("10.0.0.0/8", slot_seconds=10.0, start=0.0)
        aggregator.ingest(batch([(55.0, "10.0.0.1", 100)]))
        for stamp in (1.0, 12.0, 23.0, 34.0):
            aggregator.ingest(batch([(stamp, "10.0.0.1", 100)]))
        assert aggregator.stats.packets_outside_axis == 4
        assert aggregator.stats.packets_matched == 1

    def test_late_and_unrouted_counted_independently(self):
        aggregator = aggregator_of("10.0.0.0/8", slot_seconds=10.0, start=0.0)
        aggregator.ingest(batch([(25.0, "10.0.0.1", 100)]))
        rows = [
            (5.0, "10.0.0.1", 100),  # late
            (5.0, "192.0.2.1", 100),  # late AND unrouted -> late wins
            (26.0, "192.0.2.1", 100),  # timely but unrouted
        ]
        aggregator.ingest(batch(rows))
        assert aggregator.stats.packets_outside_axis == 2
        assert aggregator.stats.packets_unrouted == 1
        assert aggregator.stats.packets_matched == 1

    @pytest.mark.parametrize("backend_name", ["space-saving", "misra-gries"])
    def test_sketch_backends_share_drop_accounting(self, backend_name):
        """Late-packet accounting happens before the backend: a sketch
        run reports the same stats as the exact run."""

        def run(backend):
            aggregator = aggregator_of(
                "10.0.0.0/8",
                "20.0.0.0/8",
                slot_seconds=10.0,
                start=0.0,
                backend=backend,
            )
            aggregator.ingest(batch([(25.0, "10.0.0.1", 100)]))
            rows = [(5.0, "20.0.0.1", 100), (27.0, "20.0.0.1", 300)]
            aggregator.ingest(batch(rows))
            aggregator.finish()
            return aggregator.stats

        assert run(make_backend(backend_name, capacity=4)) == run(None)

    @pytest.mark.parametrize("backend_name", ["space-saving", "misra-gries"])
    @pytest.mark.parametrize(
        "wrapper",
        [{"shards": 2}, {"admission": "bloom"}],
        ids=["shards", "bloom"],
    )
    def test_wrapped_sketch_backends_share_drop_accounting(
        self, backend_name, wrapper
    ):
        """The sharder and the gate sit behind that accounting too."""

        def run(backend):
            aggregator = aggregator_of(
                "10.0.0.0/8",
                "20.0.0.0/8",
                slot_seconds=10.0,
                start=0.0,
                backend=backend,
            )
            aggregator.ingest(batch([(25.0, "10.0.0.1", 100)]))
            rows = [
                (5.0, "20.0.0.1", 100),
                (27.0, "20.0.0.1", 300),
                (28.0, "192.0.2.1", 300),
            ]
            aggregator.ingest(batch(rows))
            aggregator.finish()
            return aggregator.stats

        backend = make_backend(backend_name, capacity=4, **wrapper)
        assert run(backend) == run(None)


#: Seconds from slot 0 to the start of slot ``MAX_GAP_CELLS`` (60 s).
CAP_SECONDS = 60.0 * MAX_GAP_CELLS

#: Rows whose occupied slots step ``MAX_GAP_CELLS + 1`` once, after a
#: first batch opened slot 0: past the open slot, within the batch
#: that opens the stream, and within a later batch.
TOO_WIDE = {
    "past-the-open-slot": [[(1.0, "10.0.0.1", 100)], [(CAP_SECONDS + 60.0,)]],
    "within-the-first-batch": [[(1.0,), (CAP_SECONDS + 61.0,)]],
    "within-a-later-batch": [
        [(1.0, "10.0.0.1", 100)],
        [(61.0,), (CAP_SECONDS + 121.0,)],
    ],
}


def stream_rows(rows):
    """Fill in a destination and a size where a row gives a time only."""
    return [row if len(row) == 3 else (row[0], "10.0.0.2", 7) for row in rows]


class TestGapCap:
    """Every slot a stream steps over is emitted as an empty frame, so
    a step is bounded: at most ``MAX_GAP_CELLS`` slots, the width a
    collector bridges with gap slots too."""

    @pytest.mark.parametrize("one_batch", [False, True])
    def test_a_step_of_the_cap_emits_every_empty_frame(self, one_batch):
        aggregator = aggregator_of("10.0.0.0/8", slot_seconds=60.0)
        rows = [(1.0, "10.0.0.1", 100), (CAP_SECONDS + 1.0, "10.0.0.1", 9)]
        if one_batch:
            frames = aggregator.ingest(batch(rows))
        else:
            frames = aggregator.ingest(batch(rows[:1]))
            frames += aggregator.ingest(batch(rows[1:]))
        frames += aggregator.finish()
        assert [f.slot for f in frames] == list(range(MAX_GAP_CELLS + 1))
        rates = [float(f.rates.sum()) for f in frames]
        assert rates[0] == pytest.approx(100 * 8 / 60.0)
        assert rates[-1] == pytest.approx(9 * 8 / 60.0)
        assert not any(rates[1:-1])

    @pytest.mark.parametrize(
        "shards", [0, 1, 2], ids=["exact", "sketch", "sharded-sketch"]
    )
    @pytest.mark.parametrize("where", sorted(TOO_WIDE))
    def test_a_wider_step_is_refused_before_it_is_accounted(
        self, where, shards
    ):
        """One error naming the step and the cap; the refused batch
        leaves the slot grid, the counts (but for the records it
        brought) and every backend's table as they were."""

        def fresh():
            backend = (
                make_backend("space-saving", capacity=4, shards=shards)
                if shards
                else None
            )
            return aggregator_of(
                "10.0.0.0/8", slot_seconds=60.0, backend=backend
            )

        *before, refused = [stream_rows(rows) for rows in TOO_WIDE[where]]
        aggregator, untouched = fresh(), fresh()
        for rows in before:
            aggregator.ingest(batch(rows))
            untouched.ingest(batch(rows))
        with pytest.raises(ClassificationError) as caught:
            aggregator.ingest(batch(refused))
        assert str(caught.value) == (
            f"packet timestamps step {MAX_GAP_CELLS + 1} slots ahead; the "
            f"aggregator fills at most {MAX_GAP_CELLS} empty slots"
        )
        assert aggregator.start == untouched.start
        counts = aggregator.stats
        counts.packets_seen -= len(refused)
        assert counts == untouched.stats
        frames, expected = aggregator.finish(), untouched.finish()
        assert [f.slot for f in frames] == [f.slot for f in expected]
        for frame, twin in zip(frames, expected):
            assert np.array_equal(frame.rates, twin.rates)

    def test_a_far_future_timestamp_is_one_error_not_a_frame_flood(self):
        """10**12 s is inside the 64-bit slot reach, and ~1.7e10 empty
        60 s frames away."""
        aggregator = aggregator_of("10.0.0.0/8", slot_seconds=60.0)
        aggregator.ingest(batch([(0.5, "10.0.0.1", 100)]))
        with pytest.raises(ClassificationError, match="step 16666666666 "):
            aggregator.ingest(batch([(1e12, "10.0.0.1", 100)]))
        assert aggregator.slots_emitted == 0
