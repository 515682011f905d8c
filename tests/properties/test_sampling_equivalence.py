"""Property tests for the sampling front-end and its wire metadata.

Four load-bearing invariants:

- ``sample_rate`` 1 is a no-op: running the pipeline through a null
  sampling spec yields byte-identical slot frames, so turning the
  feature off really is off;
- deterministic 1-in-N sampling partitions packets by phase: every
  packet lands in exactly one of the N phases, so the phase-averaged
  inverted estimate equals the true byte total *exactly* (no
  statistical tolerance needed);
- the sampler's batch contract (``TestSamplerContract``): what it
  yields is exactly an independently computed selection, re-chunked
  to ``chunk_packets`` rows with ``packets_seen`` conserved, and the
  pipeline downstream cannot tell it from an in-memory source over
  the pre-sampled columns;
- ``SlotSummary.sample_rate`` survives every serialization boundary —
  the binary wire record, the collector frame codec, and the ``.npz``
  artefact — and version-1 records (no sample_rate field) still parse.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.collector import elephant_entries
from repro.distributed.framing import FrameDecoder, encode_summary
from repro.distributed.summary import (
    MAGIC,
    SlotSummary,
    load_summaries,
    save_summaries,
)
from repro.net.prefix import Prefix
from repro.pipeline.aggregator import (
    AggregatingSlotSource,
    StreamingAggregator,
)
from repro.pipeline.engine import StreamingPipeline
from repro.pipeline.sampling import (
    SAMPLING_MODES,
    SampledPacketSource,
    SamplingSpec,
)
from repro.pipeline.sources import (
    DEFAULT_CHUNK_PACKETS,
    ArrayPacketSource,
    PacketBatch,
)
from repro.pipeline.spec import PipelineSpec
from repro.routing.lpm import FixedLengthResolver

_HEADER_V1 = struct.Struct(">4sHqdddIH")


@st.composite
def packet_arrays(draw):
    """Random packet columns on a short timeline, a handful of flows."""
    n = draw(st.integers(min_value=1, max_value=400))
    flows = draw(st.integers(min_value=1, max_value=9))
    timestamps = np.sort(
        np.array(
            draw(
                st.lists(
                    st.floats(
                        min_value=0.0,
                        max_value=240.0,
                        allow_nan=False,
                    ),
                    min_size=n,
                    max_size=n,
                )
            )
        )
    )
    destinations = np.array(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=flows - 1),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=np.int64,
    )
    wire = np.array(
        draw(
            st.lists(
                st.integers(min_value=40, max_value=1500),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=np.int64,
    )
    return timestamps, destinations, wire


def frames_of(columns, spec):
    timestamps, destinations, wire = columns
    source = spec.wrap(
        ArrayPacketSource(timestamps, destinations, wire)
    )
    aggregator = StreamingAggregator(
        FixedLengthResolver(24),
        slot_seconds=60.0,
        sample_rate=spec.applied_rate,
    )
    frames = []
    for batch in source.batches():
        frames.extend(aggregator.ingest(batch))
    frames.extend(aggregator.finish())
    return frames


class TestRateOneIdentity:
    @settings(max_examples=40, deadline=None)
    @given(columns=packet_arrays())
    def test_rate_one_frames_byte_identical(self, columns):
        plain = frames_of(columns, SamplingSpec())
        sampled = frames_of(columns, SamplingSpec(rate=1))
        assert len(plain) == len(sampled)
        for a, b in zip(plain, sampled):
            assert a.slot == b.slot
            assert a.sample_rate == b.sample_rate == 1.0
            assert a.rates.tobytes() == b.rates.tobytes()
            assert list(a.population) == list(b.population)


class TestDeterministicInversion:
    @settings(max_examples=40, deadline=None)
    @given(
        columns=packet_arrays(),
        rate=st.integers(min_value=2, max_value=16),
    )
    def test_phase_average_is_exact(self, columns, rate):
        # every packet is selected in exactly one of the N phases, so
        # the inverted totals averaged over all phases recover the
        # true byte count exactly — not just in expectation
        _, _, wire = columns
        true_total = int(wire.sum())
        inverted = []
        for phase in range(rate):
            spec = SamplingSpec(rate=rate, seed=phase)
            source = spec.wrap(
                ArrayPacketSource(columns[0], columns[1], columns[2])
            )
            total = sum(
                int(batch.wire_bytes.sum())
                for batch in source.batches()
            )
            inverted.append(total)
        assert sum(inverted) == true_total * rate


COLUMNS = ("timestamps", "sources", "destinations", "protocols", "wire_bytes")


class ListSource:
    """A packet source over hand-made batches, ``chunk_packets`` or not."""

    def __init__(self, made, chunk_packets=None):
        self.made = made
        if chunk_packets is not None:
            self.chunk_packets = chunk_packets

    def batches(self):
        return iter(self.made)


@st.composite
def inner_batches(draw):
    """Up to a dozen inner batches of 0..30 rows — empty ones, ones a
    1-in-50 sampler keeps nothing of, ones with ``packets_skipped`` —
    over a few /24 flows, every column carrying its own facts."""
    sizes = draw(st.lists(st.integers(0, 30), min_size=0, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    total = sum(sizes)
    stamps = np.sort(rng.uniform(0.0, 240.0, total))
    flows = draw(st.integers(1, 6))
    columns = (
        stamps,
        rng.integers(1, 1 << 32, total),
        (10 << 24) | (rng.integers(0, flows, total) << 8),
        rng.integers(1, 255, total),
        rng.integers(40, 1501, total),
    )
    made, lo = [], 0
    for size in sizes:
        skipped = draw(st.sampled_from([0, 0, 0, 1, 7]))
        made.append(
            PacketBatch(
                *(column[lo : lo + size] for column in columns),
                packets_seen=size + skipped,
            )
        )
        lo += size
    return made


def kept_rows(made, spec):
    """The selection, computed here and not by the sampler: one mask
    over the offered stream, whatever it was batched into."""
    total = sum(batch.num_packets for batch in made)
    if spec.rate == 1:
        return np.ones(total, dtype=bool)
    if spec.mode == "probabilistic":
        return np.random.default_rng(spec.seed).random(total) < 1 / spec.rate
    return (spec.seed + np.arange(total)) % spec.rate == 0


def expected_rows(made, spec):
    """What the sampler must yield, as one list of row tuples: kept
    rows with inverted bytes; in flow-records mode one record per flow
    per *inner* batch — first kept packet's facts, bytes summed."""
    mask = kept_rows(made, spec)
    scale = spec.rate if spec.invert else 1
    rows, lo = [], 0
    for batch in made:
        kept = [
            (stamp, source, dest, proto, wire * scale)
            for keep, stamp, source, dest, proto, wire in zip(
                mask[lo : lo + batch.num_packets].tolist(),
                *(getattr(batch, name).tolist() for name in COLUMNS),
            )
            if keep
        ]
        lo += batch.num_packets
        if spec.mode == "flow-records":
            records = {}
            for stamp, source, dest, proto, wire in kept:
                record = [stamp, source, dest, proto, 0]
                records.setdefault(dest, record)[4] += wire
            kept = [tuple(record) for record in records.values()]
        rows.extend(kept)
    return rows


def specs():
    return st.builds(
        SamplingSpec,
        rate=st.sampled_from([1, 2, 3, 10, 50]),
        mode=st.sampled_from(SAMPLING_MODES),
        seed=st.integers(0, 200),
        invert=st.booleans(),
    )


CHUNKS = st.sampled_from([1, 7, 64, None])


def sampled_source(made, spec, chunk):
    # built directly: SamplingSpec.wrap hands a null spec's source back
    return SampledPacketSource(ListSource(made, chunk), spec)


class TestSamplerContract:
    @settings(max_examples=300, deadline=None)
    @given(made=inner_batches(), spec=specs(), chunk=CHUNKS)
    def test_yields_the_selection_rechunked(self, made, spec, chunk):
        sampled = sampled_source(made, spec, chunk)
        size = DEFAULT_CHUNK_PACKETS if chunk is None else chunk
        assert sampled.chunk_packets == size
        out = list(sampled.batches())
        # (a)/(d) same rows, same order, same dtypes, inverted bytes
        want = expected_rows(made, spec)
        got = [
            row
            for batch in out
            for row in zip(
                *(getattr(batch, name).tolist() for name in COLUMNS)
            )
        ]
        assert got == want
        for batch in out:
            assert batch.timestamps.dtype == np.float64
            assert all(
                getattr(batch, name).dtype == np.int64 for name in COLUMNS[1:]
            )
        # (b) exactly chunk_packets rows in every batch but the last
        assert all(batch.num_packets == size for batch in out[:-1])
        assert all(batch.num_packets <= size for batch in out)
        # (c) packets_seen: conserved over the run, sane batch by batch
        assert sum(b.packets_seen for b in out) == sum(
            b.packets_seen for b in made
        )
        assert all(b.packets_seen >= b.num_packets for b in out)
        offered = sum(b.num_packets for b in made)
        assert sampled.packets_offered == offered
        assert sampled.packets_selected == int(kept_rows(made, spec).sum())
        assert sampled.records_emitted == len(want)

    def test_a_tail_that_keeps_nothing_is_still_counted(self):
        # 4 batches of 4; 1-in-8 from phase 0 keeps packets 0 and 8: the
        # second batch keeps nothing, and the run ends on a batch of 4
        # sampled-away packets and 5 skipped records that no row will
        # ever stand for — an empty batch carries them
        stamps = np.arange(16.0)
        zeros = np.zeros(4, np.int64)
        made = [
            PacketBatch(
                stamps[lo : lo + 4],
                *(zeros,) * 4,
                packets_seen=4 + (5 if lo == 12 else 0),
            )
            for lo in (0, 4, 8, 12)
        ]
        out = list(sampled_source(made, SamplingSpec(rate=8), 1).batches())
        assert [b.timestamps.tolist() for b in out] == [[0.0], [8.0], []]
        assert [b.packets_seen for b in out] == [4, 8, 9]

    @pytest.mark.parametrize("admission", ["none", "bloom"])
    @settings(max_examples=60, deadline=None)
    @given(made=inner_batches(), spec=specs(), chunk=CHUNKS)
    def test_downstream_cannot_tell(self, admission, made, spec, chunk):
        """(e) Aggregator + classifier over the sampler == over an
        in-memory source of the pre-sampled columns at the same
        ``chunk_packets`` and ``sample_rate``: same frames, same
        ``repro.result/1`` entries — exact table, and a gated sketch
        (whose answer does depend on how rows are batched)."""
        rows = expected_rows(made, spec)
        stamps, _, dests, _, wire = (
            (np.array(column) for column in zip(*rows))
            if rows
            else (np.zeros(0),) * 5
        )
        presampled = ArrayPacketSource(
            stamps,
            dests,
            wire.astype(np.int64),
            DEFAULT_CHUNK_PACKETS if chunk is None else chunk,
        )
        pipeline = (
            PipelineSpec(sampling=spec)
            if admission == "none"
            else PipelineSpec(
                backend="space-saving",
                capacity=3,
                admission="bloom",
                admission_threshold=2000.0,
                sampling=spec,
            )
        )

        def answers(source):
            aggregator = StreamingAggregator(
                FixedLengthResolver(24),
                slot_seconds=60.0,
                backend=pipeline.build_backend(),
                sample_rate=spec.applied_rate,
            )
            events = StreamingPipeline(
                AggregatingSlotSource(source, aggregator), sampling=spec
            ).events()
            return [
                (
                    event.frame.slot,
                    event.frame.start,
                    event.frame.rates.tobytes(),
                    list(event.frame.population),
                    event.frame.residual_row,
                    event.frame.sample_rate,
                    elephant_entries(event.frame, event.verdict),
                )
                for event in events
            ]

        assert answers(sampled_source(made, spec, chunk)) == answers(
            presampled
        )


def summary_of(sample_rate, count=3):
    prefixes = tuple(
        Prefix.from_host(10 << 24 | i, 32) for i in range(count)
    )
    volumes = np.arange(1, count + 1, dtype=np.float64) * 1000.0
    return SlotSummary(
        slot=7,
        start=420.0,
        slot_seconds=60.0,
        prefixes=prefixes,
        volumes=volumes,
        residual_bytes=123.5,
        monitor="tap-a",
        sample_rate=sample_rate,
    )


class TestSampleRateWireMetadata:
    @settings(max_examples=60, deadline=None)
    @given(
        rate=st.floats(
            min_value=1.0,
            max_value=1e6,
            allow_nan=False,
            allow_infinity=False,
        )
    )
    def test_binary_roundtrip(self, rate):
        summary = summary_of(rate)
        back = SlotSummary.from_bytes(summary.to_bytes())
        assert back.sample_rate == rate
        assert back.prefixes == summary.prefixes
        assert back.volumes.tolist() == summary.volumes.tolist()
        assert back.residual_bytes == summary.residual_bytes
        assert back.monitor == summary.monitor

    @settings(max_examples=30, deadline=None)
    @given(
        rate=st.floats(
            min_value=1.0,
            max_value=1e6,
            allow_nan=False,
            allow_infinity=False,
        )
    )
    def test_frame_codec_roundtrip(self, rate):
        summary = summary_of(rate)
        decoder = FrameDecoder()
        frames = decoder.feed(encode_summary(summary))
        assert len(frames) == 1
        _, payload = frames[0]
        assert SlotSummary.from_bytes(payload).sample_rate == rate

    def test_npz_roundtrip(self, tmp_path):
        summaries = [
            summary_of(1.0).truncated(3),
            SlotSummary(
                slot=8,
                start=480.0,
                slot_seconds=60.0,
                prefixes=(Prefix.from_host(10 << 24, 32),),
                volumes=np.array([5.0]),
                sample_rate=100.0,
            ),
        ]
        path = str(tmp_path / "run.npz")
        save_summaries(path, summaries)
        loaded = load_summaries(path)
        assert [s.sample_rate for s in loaded] == [1.0, 100.0]
        assert [s.prefixes for s in loaded] == [
            s.prefixes for s in summaries
        ]
        assert [s.volumes.tolist() for s in loaded] == [
            s.volumes.tolist() for s in summaries
        ]

    def test_version_1_record_parses_as_unsampled(self):
        # a record hand-packed in the pre-sampling wire layout: the
        # reader must accept it and default sample_rate to 1.0
        monitor = b"legacy"
        header = _HEADER_V1.pack(
            MAGIC, 1, 3, 180.0, 60.0, 99.0, 1, len(monitor)
        )
        network = np.array([10 << 24], dtype=">u4").tobytes()
        length = np.array([32], dtype=np.uint8).tobytes()
        volume = np.array([1234.0], dtype=">f8").tobytes()
        payload = header + monitor + network + length + volume
        summary = SlotSummary.from_bytes(payload)
        assert summary.sample_rate == 1.0
        assert summary.slot == 3
        assert summary.residual_bytes == 99.0
        assert summary.monitor == "legacy"
        assert summary.volumes.tolist() == [1234.0]
