"""Array-engine vs scalar-engine sketch equivalence properties.

The array tables in :mod:`repro.sketches.array_tables` are the hot
path; the scalar sketches are the reference semantics. Three layers of
equivalence are pinned here:

- **Single-key streams are exact.** Fed one key per batch, each array
  table IS its scalar sketch: same tracked keys, same counts, same
  inherited errors, eviction tie-breaks included (both resolve ties by
  the smallest ``(count, key)`` pair).
- **Backend runs are exact packet-by-packet.** Driving the scalar and
  array aggregation backends with one-packet batches must produce
  identical populations, per-slot byte vectors, flow records and peak
  state — the whole residual-row/row-admission machinery agrees, not
  just the sketches.
- **Batched runs keep the summaries' guarantees.** Multi-key batches
  follow the tables' documented batch semantics, so outputs may differ
  from scalar in the margins — but capacity bounds, byte conservation,
  one-sided estimates (Space-Saving over, Misra–Gries under with the
  decrement bound) and top-K recovery of dominant keys must hold for
  every batch shape. With capacity for every flow, batching cannot
  matter at all: frames match the scalar run exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline import make_backend
from repro.pipeline.aggregator import StreamingAggregator
from repro.pipeline.backends import (
    CountMinAggregation,
    MisraGriesAggregation,
    SpaceSavingAggregation,
)
from repro.pipeline.sources import PacketBatch
from repro.routing.lpm import FixedLengthResolver
from repro.sketches.array_tables import (
    ArrayCountMin,
    ArrayMisraGries,
    ArraySpaceSaving,
)
from repro.sketches.count_min import CountMinSketch
from repro.sketches.misra_gries import MisraGries
from repro.sketches.space_saving import SpaceSaving

SKETCH_NAMES = ("space-saving", "misra-gries", "count-min")

#: The scalar reference backends, built by class — ``make_backend``
#: only builds the production (array) class for each name.
SCALAR = {
    "space-saving": SpaceSavingAggregation,
    "misra-gries": MisraGriesAggregation,
    "count-min": CountMinAggregation,
}

#: Weights mix a small repeat-heavy set (count ties occur often — the
#: tie-break agreement is part of what is under test) with non-dyadic
#: values whose sums round, so the floating-point paths of the batch
#: kernels are exercised, not just exact arithmetic.
WEIGHTS = st.sampled_from([1.0, 2.0, 3.0, 0.5, 7.25, 0.1, 3.7])

STREAMS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=30), WEIGHTS),
    min_size=1,
    max_size=120,
)

BATCHES = st.lists(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=60), WEIGHTS),
        min_size=1,
        max_size=25,
    ),
    min_size=1,
    max_size=25,
)


def scalar_and_array(name, capacity):
    if name == "space-saving":
        return SpaceSaving(capacity), ArraySpaceSaving(capacity)
    if name == "misra-gries":
        return MisraGries(capacity), ArrayMisraGries(capacity)
    sketch = CountMinSketch(width=4 * capacity, depth=4, seed=0)
    return sketch, ArrayCountMin(
        capacity, width=4 * capacity, depth=4, seed=0
    )


def aggregate(batch):
    """Sum duplicate keys within one batch, first-traffic order."""
    totals: dict[int, float] = {}
    for key, weight in batch:
        totals[key] = totals.get(key, 0.0) + weight
    keys = np.fromiter(totals, dtype=np.int64, count=len(totals))
    weights = np.array([totals[int(k)] for k in keys])
    return keys, weights


class TestSingleKeyStreamsAreExact:
    @settings(max_examples=60, deadline=None)
    @given(stream=STREAMS, capacity=st.integers(1, 8))
    def test_space_saving(self, stream, capacity):
        scalar, table = scalar_and_array("space-saving", capacity)
        for key, weight in stream:
            scalar.update(key, weight)
            table.update_batch(
                np.array([key], dtype=np.int64), np.array([weight])
            )
        assert table.items() == scalar._counts
        for key in range(31):
            assert table.guaranteed(key) == scalar.guaranteed(key)
        assert table.total_weight == scalar.total_weight

    @settings(max_examples=60, deadline=None)
    @given(stream=STREAMS, capacity=st.integers(1, 8))
    def test_misra_gries(self, stream, capacity):
        scalar, table = scalar_and_array("misra-gries", capacity)
        for key, weight in stream:
            scalar.update(key, weight)
            table.update_batch(
                np.array([key], dtype=np.int64), np.array([weight])
            )
        assert table.items() == scalar.items()
        assert table.error_bound() == scalar.error_bound()

    @settings(max_examples=60, deadline=None)
    @given(stream=STREAMS, capacity=st.integers(1, 8))
    def test_count_min_counters_match(self, stream, capacity):
        scalar, table = scalar_and_array("count-min", capacity)
        for key, weight in stream:
            scalar.update(key, weight)
            table.sketch.update_batch(
                np.array([key], dtype=np.int64), np.array([weight])
            )
        probes = np.arange(31)
        assert np.array_equal(
            table.sketch.estimate_batch(probes),
            np.array([scalar.estimate(int(k)) for k in probes]),
        )


def run_backend(backend, batches, slot_seconds=4.0):
    aggregator = StreamingAggregator(
        FixedLengthResolver(32),
        slot_seconds=slot_seconds,
        backend=backend,
    )
    frames = []
    clock = 0.0
    for batch in batches:
        for key, weight in batch:
            frames += aggregator.ingest(
                PacketBatch(
                    timestamps=np.array([clock]),
                    sources=np.zeros(1, dtype=np.int64),
                    destinations=np.array([key], dtype=np.int64),
                    protocols=np.zeros(1, dtype=np.int64),
                    wire_bytes=np.array([int(weight * 40)]),
                    packets_seen=1,
                )
            )
            clock += 0.25
    frames += aggregator.finish()
    return aggregator, frames


class TestBackendsAgreePacketByPacket:
    @settings(max_examples=25, deadline=None)
    @given(
        batches=BATCHES,
        capacity=st.integers(1, 6),
        name=st.sampled_from(SKETCH_NAMES),
    )
    def test_populations_frames_and_records_match(
        self, batches, capacity, name
    ):
        scalar, scalar_frames = run_backend(
            SCALAR[name](capacity),
            batches,
        )
        array, array_frames = run_backend(
            make_backend(name, capacity=capacity),
            batches,
        )
        assert scalar.prefixes == array.prefixes
        assert len(scalar_frames) == len(array_frames)
        for left, right in zip(scalar_frames, array_frames):
            assert np.allclose(left.rates, right.rates)
        assert (
            scalar.backend.peak_tracked == array.backend.peak_tracked
        )


def run_batched(backend, batches, slot_seconds=1e9):
    aggregator = StreamingAggregator(
        FixedLengthResolver(32),
        slot_seconds=slot_seconds,
        backend=backend,
    )
    clock = 0.0
    frames = []
    for batch in batches:
        keys = np.array([key for key, _ in batch], dtype=np.int64)
        sizes = np.array([int(weight * 40) for _, weight in batch])
        times = clock + 0.001 * np.arange(len(batch))
        frames += aggregator.ingest(
            PacketBatch(
                timestamps=times,
                sources=np.zeros(len(batch), dtype=np.int64),
                destinations=keys,
                protocols=np.zeros(len(batch), dtype=np.int64),
                wire_bytes=sizes,
                packets_seen=len(batch),
            )
        )
        clock += 1.0
    frames += aggregator.finish()
    return aggregator, frames


class TestBatchedGuarantees:
    @settings(max_examples=40, deadline=None)
    @given(
        batches=BATCHES,
        capacity=st.integers(1, 6),
        name=st.sampled_from(SKETCH_NAMES),
    )
    def test_capacity_and_byte_conservation(
        self, batches, capacity, name
    ):
        backend = make_backend(name, capacity=capacity)
        aggregator, frames = run_batched(backend, batches)
        assert backend.peak_tracked <= capacity
        recovered = sum(float(f.rates.sum()) for f in frames) * 1e9 / 8
        assert np.isclose(recovered, aggregator.stats.bytes_matched)

    @settings(max_examples=40, deadline=None)
    @given(batches=BATCHES, capacity=st.integers(1, 6))
    def test_space_saving_one_sided_estimates(self, batches, capacity):
        table = ArraySpaceSaving(capacity)
        true: dict[int, float] = {}
        for batch in batches:
            keys, weights = aggregate(batch)
            table.update_batch(keys, weights, np.arange(keys.size))
            for key, weight in zip(keys.tolist(), weights.tolist()):
                true[key] = true.get(key, 0.0) + weight
        items = table.items()
        minimum = min(items.values()) if items else 0.0
        for key, count in items.items():
            assert count >= true[key] - 1e-9
        for key, weight in true.items():
            if key not in items:
                assert weight <= minimum + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(batches=BATCHES, capacity=st.integers(1, 6))
    def test_misra_gries_undercount_bound(self, batches, capacity):
        table = ArrayMisraGries(capacity)
        true: dict[int, float] = {}
        for batch in batches:
            keys, weights = aggregate(batch)
            table.update_batch(keys, weights, np.arange(keys.size))
            for key, weight in zip(keys.tolist(), weights.tolist()):
                true[key] = true.get(key, 0.0) + weight
        items = table.items()
        bound = table.error_bound()
        for key, weight in true.items():
            estimate = items.get(key, 0.0)
            assert estimate <= weight + 1e-9
            assert weight <= estimate + bound + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(batches=BATCHES, name=st.sampled_from(SKETCH_NAMES))
    def test_ample_capacity_makes_batching_invisible(
        self, batches, name
    ):
        """With room for every flow no eviction can occur, so the
        batched array run must equal the scalar run frame-for-frame."""
        flows = len({key for batch in batches for key, _ in batch})
        scalar, scalar_frames = run_batched(
            SCALAR[name](flows),
            batches,
            slot_seconds=2.0,
        )
        array, array_frames = run_batched(
            make_backend(name, capacity=flows),
            batches,
            slot_seconds=2.0,
        )
        assert scalar.prefixes == array.prefixes
        assert len(scalar_frames) == len(array_frames)
        for left, right in zip(scalar_frames, array_frames):
            assert np.allclose(left.rates, right.rates)

    @settings(max_examples=40, deadline=None)
    @given(stream=STREAMS, capacity=st.integers(1, 8))
    def test_dominant_keys_always_reported(self, stream, capacity):
        """Any key carrying more weight than total/capacity must sit
        in the Space-Saving table — the classic top-K recovery.
        Asserted on single-key streams, where the array table is the
        scalar sketch exactly; batched admission keeps the one-sided
        and untracked-below-minimum guarantees asserted above but
        trades this worst-case bound for vectorized throughput."""
        table = ArraySpaceSaving(capacity)
        true: dict[int, float] = {}
        for key, weight in stream:
            table.update_batch(
                np.array([key], dtype=np.int64), np.array([weight])
            )
            true[key] = true.get(key, 0.0) + weight
        total = sum(true.values())
        items = table.items()
        for key, weight in true.items():
            if weight > total / capacity:
                assert key in items
