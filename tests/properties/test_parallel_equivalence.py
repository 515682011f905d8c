"""Property: multi-process ingestion classifies like in-process shards.

``parallel_ingest`` with N workers must produce classification output
equivalent to a single-process run over
``make_backend(..., shards=N)`` on the same packet stream: the same
elephant prefixes in every slot, and every matched byte conserved
through the summary wire format and the merge. The partition is the
same Fibonacci hash, each worker rebuilds the exact backend slice its
in-process shard twin owns, and the reader preserves batch boundaries,
so the equivalence is structural — this suite hunts for the places
structure leaks (slot gaps, residual accounting, float round trips
through the wire format, ragged chunk boundaries).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import parallel_ingest
from repro.net.prefix import Prefix, PrefixColumns
from repro.pipeline import (
    AggregatingSlotSource,
    ArrayPacketSource,
    PipelineSpec,
    StreamingAggregator,
    StreamingPipeline,
    make_backend,
    shard_of,
)
from repro.routing.lpm import FixedLengthResolver


@st.composite
def parallel_workloads(draw):
    """Random packet streams plus a worker count and chunk size."""
    num_flows = draw(st.integers(min_value=2, max_value=10))
    num_slots = draw(st.integers(min_value=2, max_value=5))
    workers = draw(st.integers(min_value=1, max_value=3))
    slot_seconds = draw(st.sampled_from([7.5, 10.0, 60.0]))
    chunk_packets = draw(st.integers(min_value=7, max_value=200))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31))
    rng = np.random.default_rng(seed)

    horizon = num_slots * slot_seconds
    timestamps, destinations, sizes = [], [], []
    for flow in range(num_flows):
        arrival = (flow * horizon) / (2 * num_flows)
        count = int(rng.integers(1, 40))
        stamps = rng.uniform(arrival, horizon, size=count)
        timestamps.extend(stamps.tolist())
        destinations.extend(
            [(10 << 24) | (flow << 16) | int(rng.integers(1, 255))]
            * count
        )
        sizes.extend(
            (rng.pareto(1.3, size=count) * 200 + 64)
            .clip(64, 1500).astype(int).tolist()
        )
    order = np.argsort(np.array(timestamps), kind="stable")
    return (
        workers,
        slot_seconds,
        chunk_packets,
        np.array(timestamps, dtype=np.float64)[order],
        np.array(destinations, dtype=np.int64)[order],
        np.array(sizes, dtype=np.int64)[order],
    )


def classified_slots(events):
    """Per slot start: elephant set, per-prefix latent heat, threshold."""
    slots = {}
    for event in events:
        count = event.frame.num_flows
        heat = event.verdict.latent_heat
        slots[event.frame.start] = {
            "elephants": frozenset(event.elephant_prefixes),
            "heat": dict(zip(event.frame.population[:count],
                             heat[:count].tolist())),
            "threshold": event.verdict.thresholds.smoothed,
        }
    return slots


def single_process_run(workload, backend_name, capacity):
    workers, seconds, chunk, timestamps, destinations, sizes = workload
    backend = (make_backend("exact", shards=workers)
               if backend_name == "exact"
               else make_backend(backend_name, capacity=capacity,
                                 shards=workers))
    aggregator = StreamingAggregator(
        FixedLengthResolver(16), slot_seconds=seconds, backend=backend,
    )
    pipeline = StreamingPipeline(AggregatingSlotSource(
        ArrayPacketSource(timestamps, destinations, sizes,
                          chunk_packets=chunk),
        aggregator,
    ))
    return classified_slots(pipeline.events()), \
        aggregator.stats.bytes_matched


def multi_process_run(workload, backend_name, capacity):
    workers, seconds, chunk, timestamps, destinations, sizes = workload
    result = parallel_ingest(
        ArrayPacketSource(timestamps, destinations, sizes,
                          chunk_packets=chunk),
        FixedLengthResolver(16), slot_seconds=seconds,
        spec=PipelineSpec(workers=workers, backend=backend_name,
                          capacity=capacity),
    )
    slots = classified_slots(result.collector().events())
    merged_bytes = sum(summary.total_bytes
                       for run in result.runs for summary in run)
    return slots, result.stats.bytes_matched, merged_bytes


def assert_same_elephants(reference, merged):
    """Elephant sets agree per slot, up to decision-boundary ties.

    The summary wire format carries byte *volumes*; converting a rate
    to a volume and back (``x * s/8 * 8/s``) can move the last ulp, so
    a flow whose latent heat is *numerically zero* — active in exactly
    one slot, sitting precisely on the threshold knife edge — may flip
    verdicts between the paths. Any disagreement beyond such exact
    ties is a real bug.
    """
    assert merged.keys() == reference.keys()
    for start in reference:
        ref, par = reference[start], merged[start]
        for prefix in ref["elephants"] ^ par["elephants"]:
            slack = 1e-6 * (1.0 + abs(ref["threshold"]))
            heats = (abs(ref["heat"].get(prefix, 0.0)),
                     abs(par["heat"].get(prefix, 0.0)))
            assert max(heats) <= slack, (
                f"slot {start}: {prefix} flipped verdicts with "
                f"decisive latent heat {heats}"
            )


@settings(max_examples=8, deadline=None)
@given(workload=parallel_workloads())
def test_exact_workers_classify_like_exact_shards(workload):
    """Same elephants per slot, every byte conserved (exact fleet)."""
    reference, reference_bytes = single_process_run(workload, "exact",
                                                    None)
    merged, matched_bytes, merged_bytes = multi_process_run(
        workload, "exact", None,
    )
    assert_same_elephants(reference, merged)
    assert matched_bytes == reference_bytes
    assert abs(merged_bytes - matched_bytes) <= 1e-9 * matched_bytes


@settings(max_examples=6, deadline=None)
@given(workload=parallel_workloads(),
       capacity=st.integers(min_value=2, max_value=24))
def test_sketch_workers_classify_like_sketch_shards(workload, capacity):
    """Same elephants per slot, bytes conserved (bounded fleet)."""
    reference, reference_bytes = single_process_run(
        workload, "space-saving", capacity,
    )
    merged, matched_bytes, merged_bytes = multi_process_run(
        workload, "space-saving", capacity,
    )
    assert_same_elephants(reference, merged)
    assert matched_bytes == reference_bytes
    assert abs(merged_bytes - matched_bytes) <= 1e-9 * max(
        matched_bytes, 1,
    )


@st.composite
def partitioned_specs(draw):
    """A 1-4 way deployment: exact or sketch, with or without the gate."""
    backend = draw(st.sampled_from(
        ["exact", "space-saving", "misra-gries", "count-min",
         "sample-hold"]
    ))
    fields = {"workers": draw(st.integers(min_value=1, max_value=4))}
    if backend != "exact":
        fields["capacity"] = draw(st.integers(min_value=1, max_value=12))
        fields["seed"] = draw(st.integers(min_value=0, max_value=5))
        if backend != "sample-hold" and draw(st.booleans()):
            fields["admission"] = "bloom"
            fields["admission_threshold"] = draw(
                st.sampled_from([None, 300.0])
            )
    return PipelineSpec(backend=backend, **fields)


#: Per slot, per batch: (flow key, bytes) packets.
SLOTTED_PACKETS = st.lists(
    st.lists(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=40),
                      st.integers(min_value=64, max_value=1500)),
            min_size=1, max_size=30,
        ),
        min_size=1, max_size=3,
    ),
    min_size=1, max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(spec=partitioned_specs(), slots=SLOTTED_PACKETS)
def test_build_shard_is_the_sharded_backends_shard(spec, slots):
    """Worker ``i``'s table is shard ``i``'s table.

    ``spec.build_shard(i)`` fed shard ``i``'s sub-stream must end in
    the state shard ``i`` of the ``shards=N`` twin reaches inside the
    in-process sharder: same population, same slot vectors, same
    capacity slice, same bytes turned away at the Bloom gate.
    """
    parts = spec.partitions
    twin = spec.replace(workers=1, shards=parts).build_backend()
    twin = make_backend("exact") if twin is None else twin
    twin_shards = getattr(twin, "shards", [twin])
    twin_vectors = [[] for _ in twin_shards]
    for shard, log in zip(twin_shards, twin_vectors):
        def close_slot(close=shard.close_slot, log=log):
            log.append(close())
            return log[-1]
        shard.close_slot = close_slot
    built = [spec.build_shard(index) for index in range(parts)]
    built_vectors = [[] for _ in built]

    # flow keys are 0..40 (SLOTTED_PACKETS): key -> 10.0.key.0/24
    table = PrefixColumns.of(
        [Prefix((10 << 24) | (key << 8), 24) for key in range(41)]
    )

    clock = 0.0
    for batches in slots:
        for batch in batches:
            keys = np.array([key for key, _ in batch], dtype=np.int64)
            sizes = np.array([size for _, size in batch], dtype=np.int64)
            stamps = clock + np.arange(keys.size, dtype=np.float64)
            clock += keys.size
            twin.accumulate(keys, sizes, stamps, table)
            homes = shard_of(keys, parts)
            for index, shard in enumerate(built):
                mine = homes == index
                if mine.any():
                    shard.accumulate(
                        keys[mine], sizes[mine], stamps[mine], table
                    )
        twin.close_slot()
        for shard, log in zip(built, built_vectors):
            log.append(shard.close_slot())

    assert len(twin_shards) == parts
    for mine, theirs, my_log, their_log in zip(
        built, twin_shards, built_vectors, twin_vectors
    ):
        assert type(mine) is type(theirs)
        assert mine.prefixes == theirs.prefixes
        assert mine.capacity == theirs.capacity
        assert len(my_log) == len(their_log)
        for left, right in zip(my_log, their_log):
            assert np.array_equal(left, right)
        assert mine.peak_tracked == theirs.peak_tracked
        assert getattr(mine, "admission_rejected_bytes", 0.0) == getattr(
            theirs, "admission_rejected_bytes", 0.0
        )
