"""Property: sharding exact backends is invisible, slot for slot.

`ShardedAggregation` over N exact inner backends must be *byte
identical* to a single `ExactAggregation` — same row numbering (global
first-traffic order), same per-slot byte vectors bit for bit, same
emitted population — for every shard count, chunking, slot length and
arrival pattern. This is the correctness anchor for the whole
shard-and-merge subsystem: if the lossless case drifts even one float,
the sketch-shard merge error is unbounded too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline import StreamingAggregator, make_backend
from repro.pipeline.sources import PacketBatch
from repro.routing.lpm import FixedLengthResolver


@st.composite
def sharded_workloads(draw):
    """Random packet streams plus a shard count and ragged chunking."""
    num_flows = draw(st.integers(min_value=2, max_value=12))
    num_slots = draw(st.integers(min_value=2, max_value=6))
    num_shards = draw(st.integers(min_value=1, max_value=5))
    slot_seconds = draw(st.sampled_from([7.5, 10.0, 60.0]))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)

    horizon = num_slots * slot_seconds
    timestamps, destinations, sizes = [], [], []
    for flow in range(num_flows):
        arrival = (flow * horizon) / (2 * num_flows)
        count = int(rng.integers(1, 40))
        stamps = rng.uniform(arrival, horizon, size=count)
        timestamps.extend(stamps.tolist())
        host = int(rng.integers(1, 255))
        destinations.extend([(10 << 24) | (flow << 16) | host] * count)
        drawn = rng.pareto(1.3, size=count) * 200 + 64
        sizes.extend(drawn.clip(64, 1500).astype(int).tolist())
    order = np.argsort(np.array(timestamps), kind="stable")
    timestamps = np.array(timestamps, dtype=np.float64)[order]
    destinations = np.array(destinations, dtype=np.int64)[order]
    sizes = np.array(sizes, dtype=np.int64)[order]

    num_cuts = draw(st.integers(min_value=0, max_value=5))
    cuts = sorted(rng.integers(0, timestamps.size + 1, size=num_cuts).tolist())
    bounds = [0] + cuts + [timestamps.size]
    chunks = [
        (timestamps[a:b], destinations[a:b], sizes[a:b])
        for a, b in zip(bounds, bounds[1:])
    ]
    return num_shards, slot_seconds, chunks


def run_chunks(slot_seconds, chunks, backend):
    aggregator = StreamingAggregator(
        FixedLengthResolver(16),
        slot_seconds=slot_seconds,
        start=0.0,
        backend=backend,
    )
    frames = []
    for stamps, dests, sizes in chunks:
        batch = PacketBatch(stamps, dests, sizes, stamps.size)
        frames += aggregator.ingest(batch)
    frames += aggregator.finish()
    return aggregator, frames


@settings(max_examples=25, deadline=None)
@given(workload=sharded_workloads())
def test_sharded_exact_is_slot_for_slot_identical(workload):
    """N exact shards merge into exactly the single-table run."""
    num_shards, slot_seconds, chunks = workload
    _, reference = run_chunks(slot_seconds, chunks, None)
    backend = make_backend("exact", shards=num_shards)
    _, sharded = run_chunks(slot_seconds, chunks, backend)

    assert len(reference) == len(sharded)
    for ref, got in zip(reference, sharded):
        assert ref.slot == got.slot
        assert ref.start == got.start
        # population: same prefixes in the same row order
        assert list(ref.population) == list(got.population)
        # rates: bit-identical floats, not approximately equal
        assert np.array_equal(ref.rates, got.rates)
        assert got.residual_row is None


@settings(max_examples=10, deadline=None)
@given(workload=sharded_workloads())
def test_sharded_exact_records_identical(workload):
    """Merged per-flow bytes equal the single table's and conserve."""
    num_shards, slot_seconds, chunks = workload
    single, reference = run_chunks(slot_seconds, chunks, None)
    backend = make_backend("exact", shards=num_shards)
    sharded, frames = run_chunks(slot_seconds, chunks, backend)
    assert sharded.prefixes == single.prefixes
    assert len(frames) == len(reference)
    for got, ref in zip(frames, reference):
        assert np.array_equal(got.rates, ref.rates)
    total = sum(float(f.rates.sum()) for f in frames) * slot_seconds / 8.0
    assert total == pytest.approx(sharded.stats.bytes_matched)


@settings(max_examples=10, deadline=None)
@given(
    workload=sharded_workloads(),
    capacity=st.integers(min_value=2, max_value=24),
)
def test_sharded_sketch_conserves_bytes(workload, capacity):
    """Sketch shards may mislabel flows, never lose or invent bytes."""
    num_shards, slot_seconds, chunks = workload
    backend = make_backend(
        "space-saving", capacity=capacity, shards=num_shards
    )
    aggregator, frames = run_chunks(slot_seconds, chunks, backend)
    streamed = sum(
        float(frame.rates.sum()) * slot_seconds / 8.0 for frame in frames
    )
    matched = aggregator.stats.bytes_matched
    assert abs(streamed - matched) <= 1e-9 * matched
    assert backend.peak_tracked <= backend.capacity


@settings(max_examples=10, deadline=None)
@given(
    workload=sharded_workloads(),
    capacity=st.integers(min_value=2, max_value=24),
    gated=st.booleans(),
)
def test_sharded_misra_gries_conserves_bytes(workload, capacity, gated):
    """The same for the other table, with or without the Bloom gate in
    front of each shard: a rejected byte goes to the residual row."""
    num_shards, slot_seconds, chunks = workload
    backend = make_backend(
        "misra-gries",
        capacity=capacity,
        shards=num_shards,
        admission="bloom" if gated else "none",
        admission_threshold=3000.0 if gated else None,
    )
    aggregator, frames = run_chunks(slot_seconds, chunks, backend)
    streamed = sum(
        float(frame.rates.sum()) * slot_seconds / 8.0 for frame in frames
    )
    matched = aggregator.stats.bytes_matched
    assert abs(streamed - matched) <= 1e-9 * matched
    assert backend.peak_tracked <= backend.capacity
