"""Property-based streaming ≡ batch equivalence over packet streams.

The streaming pipeline's core contract: however a capture is chunked
into batches, whenever flows first appear, and whatever the slot
length, the exact backend's one-pass run must produce *bit-identical*
elephant masks to the two-pass batch path (aggregate everything, then
classify the matrix). Hypothesis drives randomized packet workloads —
heavy-tailed sizes, staggered flow arrival, irregular batch boundaries
— through both paths and compares verdict for verdict.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import assert_stream_matches_batch

from repro.core.engine import (
    ClassificationEngine,
    EngineConfig,
    Feature,
    Scheme,
)
from repro.flows.aggregate import FlowAggregator
from repro.net.prefix import Prefix
from repro.pcap.packet import PacketSummary
from repro.pipeline import StreamingAggregator, StreamingPipeline
from repro.pipeline.sources import PacketBatch
from repro.routing.aspath import AsPath, AsTier, AutonomousSystem
from repro.routing.rib import Route, RoutingTable


def make_table(num_flows):
    routes = []
    for i in range(num_flows):
        asn = AutonomousSystem(65000 + i, AsTier.STUB)
        routes.append(
            Route(Prefix.parse(f"10.{i}.0.0/16"), AsPath((asn.number,)), asn)
        )
    return RoutingTable(routes)


@st.composite
def packet_workloads(draw):
    """Random packet streams with staggered arrival and ragged chunks."""
    num_flows = draw(st.integers(min_value=3, max_value=10))
    num_slots = draw(st.integers(min_value=3, max_value=8))
    slot_seconds = draw(st.sampled_from([7.5, 10.0, 60.0, 300.0]))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)

    horizon = num_slots * slot_seconds
    timestamps, destinations, sizes = [], [], []
    for flow in range(num_flows):
        # staggered arrival: flow i is silent before its arrival time
        arrival = (flow * horizon) / (2 * num_flows)
        count = int(rng.integers(1, 60))
        stamps = rng.uniform(arrival, horizon, size=count)
        timestamps.extend(stamps.tolist())
        destinations.extend(
            [(10 << 24) | (flow << 16) | int(rng.integers(1, 255))] * count
        )
        sizes.extend(
            (rng.pareto(1.3, size=count) * 200 + 64)
            .clip(64, 1500)
            .astype(int)
            .tolist()
        )
    order = np.argsort(np.array(timestamps), kind="stable")
    timestamps = np.array(timestamps, dtype=np.float64)[order]
    destinations = np.array(destinations, dtype=np.int64)[order]
    sizes = np.array(sizes, dtype=np.int64)[order]

    # irregular batch boundaries, including empty and 1-packet chunks
    num_cuts = draw(st.integers(min_value=0, max_value=6))
    cuts = sorted(rng.integers(0, timestamps.size + 1, size=num_cuts).tolist())
    bounds = [0] + cuts + [timestamps.size]
    chunks = [
        (timestamps[a:b], destinations[a:b], sizes[a:b])
        for a, b in zip(bounds, bounds[1:])
    ]
    packets = (timestamps, destinations, sizes)
    return num_flows, slot_seconds, chunks, packets


def stream_pipeline(
    num_flows,
    slot_seconds,
    chunks,
    scheme=Scheme.CONSTANT_LOAD,
    feature=Feature.LATENT_HEAT,
    config=None,
):
    """The pipeline over the frames ``chunks`` aggregate to, undrained."""
    aggregator = StreamingAggregator(
        make_table(num_flows), slot_seconds=slot_seconds, start=0.0
    )
    frames = []
    for stamps, dests, sizes in chunks:
        frames += aggregator.ingest(
            PacketBatch(
                timestamps=stamps,
                destinations=dests,
                wire_bytes=sizes,
                packets_seen=stamps.size,
            )
        )
    frames += aggregator.finish()

    class Replay:
        slot_seconds = aggregator.slot_seconds

        def slots(self):
            return iter(frames)

    pipeline = StreamingPipeline(
        Replay(), scheme=scheme, feature=feature, config=config
    )
    return aggregator, pipeline


def batch_result(num_flows, axis, packets, scheme, feature, config=None):
    stamps, dests, sizes = packets
    aggregator = FlowAggregator(make_table(num_flows), axis)
    for stamp, dest, size in zip(stamps, dests, sizes):
        aggregator.add(
            PacketSummary(
                timestamp=float(stamp),
                destination=int(dest),
                wire_bytes=int(size),
            )
        )
    matrix = aggregator.to_rate_matrix()
    engine = ClassificationEngine(matrix, config or EngineConfig())
    return engine.run(scheme, feature)


@settings(max_examples=20, deadline=None)
@given(
    workload=packet_workloads(),
    feature=st.sampled_from(list(Feature)),
    window=st.integers(min_value=1, max_value=12),
)
def test_masks_bit_identical_constant_load(workload, feature, window):
    """Chunking, arrival order, slot length and a latent-heat window
    shorter than the run never change a verdict."""
    num_flows, slot_seconds, chunks, packets = workload
    scheme, config = Scheme.CONSTANT_LOAD, EngineConfig(window=window)
    aggregator, pipeline = stream_pipeline(
        num_flows, slot_seconds, chunks, scheme, feature, config
    )
    # byte sums are integral, so both paths see *identical* rates and
    # the verdicts must match exactly, not approximately
    batch = batch_result(
        num_flows, aggregator.axis(), packets, scheme, feature, config
    )
    assert_stream_matches_batch(pipeline, batch)


@settings(max_examples=10, deadline=None)
@given(workload=packet_workloads())
def test_thresholds_bit_identical_aest(workload):
    """The aest scheme's detected thresholds agree across both paths."""
    num_flows, slot_seconds, chunks, packets = workload
    scheme, feature = Scheme.AEST, Feature.LATENT_HEAT
    aggregator, pipeline = stream_pipeline(
        num_flows, slot_seconds, chunks, scheme, feature
    )
    batch = batch_result(
        num_flows, aggregator.axis(), packets, scheme, feature
    )
    assert_stream_matches_batch(pipeline, batch)


@settings(max_examples=10, deadline=None)
@given(
    workload=packet_workloads(),
    chunking_seed=st.integers(min_value=0, max_value=1000),
)
def test_rechunking_is_invisible(workload, chunking_seed):
    """Two different chunkings of the same packets emit equal events."""
    num_flows, slot_seconds, chunks, packets = workload
    stamps, dests, sizes = packets
    rng = np.random.default_rng(chunking_seed)
    cuts = sorted(rng.integers(0, stamps.size + 1, size=3).tolist())
    bounds = [0] + cuts + [stamps.size]
    rechunked = [
        (stamps[a:b], dests[a:b], sizes[a:b])
        for a, b in zip(bounds, bounds[1:])
    ]

    def events(pieces):
        _, pipeline = stream_pipeline(num_flows, slot_seconds, pieces)
        return list(pipeline.events())

    first, second = events(chunks), events(rechunked)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        size, population = a.frame.rates.size, a.frame.population
        assert list(population[:size]) == list(b.frame.population[:size])
        assert np.array_equal(a.frame.rates, b.frame.rates)
        assert np.array_equal(a.verdict.elephant_mask, b.verdict.elephant_mask)
