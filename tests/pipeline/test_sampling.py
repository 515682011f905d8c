"""Tests for the packet-sampling front-end (SamplingSpec et al.)."""

import numpy as np
import pytest

from repro.errors import ClassificationError
from repro.pipeline.sampling import (
    SAMPLING_MODES,
    UNSAMPLED,
    SampledPacketSource,
    SamplingSpec,
)
from repro.pipeline.sources import (
    DEFAULT_CHUNK_PACKETS,
    ArrayPacketSource,
    PacketBatch,
)


def source_of(n=1000, flows=7, size=100, chunk=256):
    timestamps = np.arange(n, dtype=float) * 0.01
    destinations = np.arange(n, dtype=np.int64) % flows
    wire = np.full(n, size, dtype=np.int64)
    return ArrayPacketSource(
        timestamps, destinations, wire, chunk_packets=chunk
    )


def drain(source):
    batches = list(source.batches())
    total = sum(int(b.wire_bytes.sum()) for b in batches)
    rows = sum(b.num_packets for b in batches)
    return batches, total, rows


class TestSamplingSpec:
    def test_defaults_are_null(self):
        assert UNSAMPLED.is_null
        assert UNSAMPLED.rate == 1
        assert UNSAMPLED.applied_rate == 1.0

    def test_rate_must_be_integer_ge_1(self):
        with pytest.raises(ClassificationError):
            SamplingSpec(rate=0)
        with pytest.raises(ClassificationError):
            SamplingSpec(rate=-3)
        with pytest.raises(ClassificationError):
            SamplingSpec(rate=2.5)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ClassificationError, match="sampling mode"):
            SamplingSpec(rate=10, mode="systematic")

    def test_guard_validation(self):
        with pytest.raises(ClassificationError):
            SamplingSpec(guard_packets=-1)
        with pytest.raises(ClassificationError):
            SamplingSpec(guard_packet_bytes=0.0)

    def test_probability_and_applied_rate(self):
        spec = SamplingSpec(rate=100)
        assert spec.probability == pytest.approx(0.01)
        assert spec.applied_rate == 100.0
        assert SamplingSpec(rate=100, invert=False).applied_rate == 1.0

    def test_evidence_bytes(self):
        spec = SamplingSpec(
            rate=10, guard_packets=3, guard_packet_bytes=500.0
        )
        assert spec.evidence_bytes == 1500.0

    def test_wrap_null_returns_source(self):
        source = source_of()
        assert UNSAMPLED.wrap(source) is source

    def test_wrap_flow_records_always_wraps(self):
        source = source_of()
        wrapped = SamplingSpec(rate=1, mode="flow-records").wrap(source)
        assert isinstance(wrapped, SampledPacketSource)

    def test_modes_enumerated(self):
        assert SAMPLING_MODES == (
            "deterministic",
            "probabilistic",
            "flow-records",
        )


class TestDeterministicSampling:
    def test_exact_one_in_n_count(self):
        source = source_of(n=1000)
        sampled = SamplingSpec(rate=10).wrap(source)
        _, total, rows = drain(sampled)
        assert rows == 100
        assert sampled.packets_offered == 1000
        assert sampled.packets_selected == 100
        # uniform sizes: deterministic inversion is exact
        assert total == 1000 * 100

    def test_phase_from_seed(self):
        source = source_of(n=20, chunk=20)
        batches0, _, _ = drain(SamplingSpec(rate=10, seed=0).wrap(source))
        batches3, _, _ = drain(SamplingSpec(rate=10, seed=3).wrap(source))
        # seed 0 keeps packets 0, 10; seed 3 keeps 7, 17
        assert batches0[0].timestamps.tolist() == [0.0, 0.1]
        assert [round(t, 2) for t in batches3[0].timestamps] == [
            0.07,
            0.17,
        ]

    def test_counter_spans_batches(self):
        # phase must carry across chunk boundaries: chunk=7, rate=10
        source = source_of(n=100, chunk=7)
        _, _, rows = drain(SamplingSpec(rate=10).wrap(source))
        assert rows == 10

    def test_no_invert_leaves_bytes(self):
        source = source_of(n=100)
        spec = SamplingSpec(rate=10, invert=False)
        sampled = spec.wrap(source)
        _, total, rows = drain(sampled)
        assert rows == 10
        assert total == 10 * 100
        assert sampled.sample_rate == 1.0

    def test_integer_dtype_preserved(self):
        source = source_of(n=100)
        batches, _, _ = drain(SamplingSpec(rate=10).wrap(source))
        assert batches[0].wire_bytes.dtype == np.int64

    def test_packets_seen_counts_sampled_away(self):
        # conserved over the run, not per inner batch: 105 offered in
        # chunks of 3, the 11 kept come out as 3 + 3 + 3 + 2, and the
        # four packets sampled away after the last kept one still count
        source = source_of(n=105, chunk=3)
        batches, _, _ = drain(SamplingSpec(rate=10).wrap(source))
        assert [b.num_packets for b in batches] == [3, 3, 3, 2]
        assert sum(b.packets_seen for b in batches) == 105
        assert all(b.packets_seen >= b.num_packets for b in batches)
        assert all(b.packets_skipped >= 0 for b in batches)


class TestProbabilisticSampling:
    def test_seeded_and_reproducible(self):
        source = source_of(n=5000)
        spec = SamplingSpec(rate=10, mode="probabilistic", seed=42)
        _, total1, rows1 = drain(spec.wrap(source))
        _, total2, rows2 = drain(spec.wrap(source))
        assert (total1, rows1) == (total2, rows2)

    def test_unbiased_within_tolerance(self):
        n, size, rate = 20000, 100, 10
        source = source_of(n=n, size=size)
        spec = SamplingSpec(rate=rate, mode="probabilistic", seed=7)
        _, total, rows = drain(spec.wrap(source))
        true = n * size
        # binomial: sd of the estimate is size*rate*sqrt(n p (1-p))
        sd = size * rate * np.sqrt(n * 0.1 * 0.9)
        assert abs(total - true) < 5 * sd
        assert 0 < rows < n


class TestFlowRecords:
    def test_one_record_per_flow_per_batch(self):
        source = source_of(n=100, flows=4, chunk=100)
        spec = SamplingSpec(rate=1, mode="flow-records")
        sampled = spec.wrap(source)
        batches, total, rows = drain(sampled)
        assert rows == 4
        assert sampled.records_emitted == 4
        assert sampled.packets_selected == 100
        assert total == 100 * 100  # bytes conserved

    def test_first_appearance_order_and_timestamp(self):
        timestamps = np.array([1.0, 2.0, 3.0, 4.0])
        destinations = np.array([9, 5, 9, 5], dtype=np.int64)
        wire = np.array([10, 20, 30, 40], dtype=np.int64)
        source = ArrayPacketSource(timestamps, destinations, wire)
        spec = SamplingSpec(rate=1, mode="flow-records")
        batches, _, _ = drain(spec.wrap(source))
        batch = batches[0]
        assert batch.destinations.tolist() == [9, 5]
        assert batch.timestamps.tolist() == [1.0, 2.0]
        assert batch.wire_bytes.tolist() == [40, 60]

    def test_sampled_flow_records_invert(self):
        # 3 flows, coprime with the rate, so sampling sees all of them
        source = source_of(n=1000, flows=3, chunk=1000)
        spec = SamplingSpec(rate=10, mode="flow-records")
        _, total, rows = drain(spec.wrap(source))
        assert rows == 3
        assert total == 1000 * 100


class TestCountersAndResets:
    def test_counters_reset_per_iteration(self):
        source = source_of(n=100)
        sampled = SamplingSpec(rate=10).wrap(source)
        drain(sampled)
        drain(sampled)
        assert sampled.packets_offered == 100
        assert sampled.packets_selected == 10

    def test_chunk_packets_forwarded(self):
        source = source_of(chunk=123)
        sampled = SamplingSpec(rate=10).wrap(source)
        assert sampled.chunk_packets == 123

    def test_chunk_packets_is_always_an_int(self):
        # it is the size the sampler emits, so a source that names none
        # gets the default — never None (which crashed the fleet runner)
        sampled = SamplingSpec(rate=10).wrap(ForeignColumns(np.ones(100)))
        assert sampled.chunk_packets == DEFAULT_CHUNK_PACKETS
        assert sum(b.num_packets for b in sampled.batches()) == 10


class ForeignColumns:
    """A foreign ``PacketSource``: it names no ``chunk_packets`` and
    hands over whatever size column it was given."""

    def __init__(self, wire, chunk=256):
        self.wire = wire
        self.chunk = chunk

    def batches(self):
        stamps = np.arange(self.wire.size, dtype=float)
        for lo in range(0, self.wire.size, self.chunk):
            hi = lo + self.chunk
            keys = np.zeros(stamps[lo:hi].size, np.int64)
            yield PacketBatch.of_flows(stamps[lo:hi], keys, self.wire[lo:hi])


class TestInversionDtypes:
    """``wire * rate`` must not wrap a compact size column (NEP 50
    keeps a uint16 array uint16 under a Python-int multiply)."""

    @pytest.mark.parametrize("rate", [50, 10**6])
    @pytest.mark.parametrize(
        "dtype", [np.uint8, np.uint16, np.int32, np.uint32]
    )
    @pytest.mark.parametrize("foreign", [False, True])
    def test_compact_integer_columns_invert_exactly(
        self, dtype, rate, foreign
    ):
        n = 20 * rate if rate == 50 else 2 * rate + 5
        size = min(1500, np.iinfo(dtype).max)
        wire = np.full(n, size, dtype=dtype)
        if foreign:
            source = ForeignColumns(wire, chunk=4096)
        else:
            source = ArrayPacketSource(
                np.arange(n, dtype=float), np.zeros(n, np.int64), wire
            )
        batches, total, rows = drain(SamplingSpec(rate=rate).wrap(source))
        assert rows == -(-n // rate)
        assert total == rows * size * rate
        assert all(b.wire_bytes.dtype == np.int64 for b in batches)

    def test_float_columns_stay_float(self):
        source = ForeignColumns(np.full(100, 1500.0))
        batches, _, _ = drain(SamplingSpec(rate=10).wrap(source))
        assert batches[0].wire_bytes.dtype == np.float64
        assert batches[0].wire_bytes.tolist() == [15000.0] * 10


class Counting:
    """A proxy that counts the calls made to one method."""

    def __init__(self, inner, method):
        self.inner = inner
        self.calls = 0
        self._method = method

    def __getattr__(self, name):
        value = getattr(self.inner, name)
        if name != self._method:
            return value

        def counted(*args, **kwargs):
            self.calls += 1
            return value(*args, **kwargs)

        return counted


class TestDownstreamIsPaidPerKeptRow:
    """A count, not a stopwatch: behind a 1-in-R sampler the resolver
    and the backend are called per ``chunk_packets`` *kept* rows, not
    once per inner batch."""

    @pytest.mark.parametrize("mode", SAMPLING_MODES[:2])
    @pytest.mark.parametrize("chunk", [64, 100, 4096])
    def test_lookup_and_accumulate_calls(self, mode, chunk):
        from repro.pipeline.aggregator import StreamingAggregator
        from repro.pipeline.backends import ExactAggregation
        from repro.routing.lpm import FixedLengthResolver

        n, rate, slot_seconds = 20_000, 10, 60.0
        rng = np.random.default_rng(1)
        stamps = np.sort(rng.uniform(0.0, 4 * slot_seconds, n))
        dests = (10 << 24) | (rng.integers(0, 40, n) << 8)
        source = ArrayPacketSource(
            stamps, dests, np.full(n, 100), chunk_packets=chunk
        )
        sampled = SamplingSpec(rate=rate, mode=mode, seed=3).wrap(source)
        resolver = Counting(FixedLengthResolver(24), "lookup")
        backend = Counting(ExactAggregation(), "accumulate")
        aggregator = StreamingAggregator(
            resolver, slot_seconds, backend=backend, sample_rate=rate
        )
        frames = list(aggregator.frames(sampled))
        kept = sampled.packets_selected
        inner_batches = -(-n // chunk)
        calls = -(-kept // chunk)
        assert calls < inner_batches  # what it was: one per inner batch
        assert resolver.calls == calls
        assert calls <= backend.calls <= calls + len(frames)


class TestEmptyBatchesAfterSampling:
    """A batch sampling down to zero packets is a no-op everywhere.

    The first-timestamp regression: an empty sampled batch must not
    establish slot 0's start (or leak inf/-inf first/last sentinels
    into flow records) — the first *surviving* packet does.
    """

    def test_flow_records_mode_passes_empty_batches(self):
        # chunk=10 with rate=100 leaves most chunks empty
        source = source_of(n=40, flows=2, chunk=10)
        spec = SamplingSpec(rate=100, mode="flow-records")
        batches, total, rows = drain(spec.wrap(source))
        assert rows == 1  # only packet 0 survives 1-in-100
        assert total == 40 * 100 // 40 * 100  # 100 bytes x rate 100
        assert all(b.num_packets >= 0 for b in batches)

    def test_first_slot_starts_at_first_sampled_packet(self):
        from repro.pipeline.aggregator import (
            AggregatingSlotSource,
            StreamingAggregator,
        )
        from repro.routing.lpm import FixedLengthResolver

        # packets every second; chunks of 4; deterministic 1-in-8
        # with phase seed 0 selects packets 0, 8, 16, ... — so the
        # chunks holding packets 1..7 sample down to nothing
        n = 32
        timestamps = np.arange(n, dtype=float)
        destinations = np.full(n, 10 << 24, dtype=np.int64)
        wire = np.full(n, 100, dtype=np.int64)
        source = ArrayPacketSource(
            timestamps, destinations, wire, chunk_packets=4
        )
        spec = SamplingSpec(rate=8)
        aggregator = StreamingAggregator(
            FixedLengthResolver(16),
            slot_seconds=16.0,
            sample_rate=spec.applied_rate,
        )
        slot_source = AggregatingSlotSource(
            spec.wrap(source), aggregator
        )
        frames = list(slot_source.slots())
        assert frames, "sampled stream still has packets"
        assert frames[0].start == 0.0
        # every sampled byte lands in a real slot, inverted back up
        total = sum(
            float(f.rates.sum()) * 16.0 / 8.0 for f in frames
        )
        assert total == pytest.approx(n * 100, rel=0.26)
