"""Array-engine vs scalar-engine sketch equivalence properties.

The array tables in :mod:`repro.sketches.array_tables` are the hot
path; the scalar sketches are the reference semantics. Three layers of
equivalence are pinned here:

- **Single-key streams are exact.** Fed one key per batch, each array
  table IS its scalar sketch: same tracked keys, same counts, same
  inherited errors, eviction tie-breaks included (both resolve ties by
  the smallest ``(count, key)`` pair).
- **Sample-and-Hold is exact for any batch.** It never evicts, so hits
  and newcomers commute: multi-key batches in any offer order leave the
  array table with the scalar table's counts *and* its generator where
  the scalar one's is — including when the table fills mid-batch and
  the unused draws are handed back.
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

from oracles import scalar_backend
from repro.pipeline import ArraySketchAggregation, make_backend
from repro.pipeline.aggregator import StreamingAggregator
from repro.pipeline.sources import PacketBatch
from repro.routing.lpm import FixedLengthResolver
from repro.sketches.array_tables import (
    ArrayCountMin,
    ArrayMisraGries,
    ArraySampleHold,
    ArraySpaceSaving,
)
from repro.sketches.count_min import CountMinSketch
from repro.sketches.misra_gries import MisraGries
from repro.sketches.sample_hold import SampleAndHold
from repro.sketches.space_saving import SpaceSaving

SKETCH_NAMES = ("space-saving", "misra-gries", "count-min", "sample-hold")

#: Per-byte sampling probability of the sample-hold twins below: the
#: production default (1e-5) would hold next to nothing of these
#: few-hundred-byte streams, and a table that stays empty proves
#: nothing. 0.02 holds some flows, misses others and fills small tables.
SAMPLING = 0.02


def twin_backends(name, capacity, seed=0):
    """``(scalar oracle, production backend)`` for one sketch name."""
    scalar = scalar_backend(name, capacity, seed, SAMPLING)
    if name != "sample-hold":
        return scalar, make_backend(name, capacity=capacity, seed=seed)
    table = ArraySampleHold(capacity, SAMPLING, seed)
    return scalar, ArraySketchAggregation(table, name)


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


#: Sample-and-Hold batches: distinct keys in *offer* order, weights from
#: nothing to a full-size packet train (zero weights draw nothing).
HELD_BATCHES = st.lists(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=40),
            st.sampled_from([0.0, 0.5, 1.0, 40.0, 700.0, 1500.0, 9000.0]),
        ),
        min_size=1,
        max_size=25,
        unique_by=lambda offer: offer[0],
    ),
    min_size=1,
    max_size=12,
)


class TestSampleHoldIsExactForAnyBatch:
    @settings(max_examples=200, deadline=None)
    @given(
        batches=HELD_BATCHES,
        capacity=st.integers(1, 12),
        probability=st.sampled_from([1.0, 0.5, 0.05, 0.001]),
        seed=st.integers(0, 7),
    )
    def test_counts_and_generator_match_after_every_batch(
        self, batches, capacity, probability, seed
    ):
        scalar = SampleAndHold(probability, seed=seed, max_entries=capacity)
        table = ArraySampleHold(capacity, probability, seed)
        for batch in batches:
            for key, weight in batch:
                scalar.update(key, weight)
            # the backend hands a table its keys ascending, with the
            # first-traffic (here: offer) order as a permutation of
            # them: keys[order] is the batch as it was offered
            offered = np.array([key for key, _ in batch], dtype=np.int64)
            order = np.argsort(np.argsort(offered))
            keys = np.sort(offered)
            weights = np.empty(keys.size)
            weights[order] = [weight for _, weight in batch]
            update = table.update_batch(keys, weights, order)
            assert table.items() == scalar._counts
            assert update.evicted.size == 0
            held = {int(k) for k in keys[update.slots >= 0]}
            assert held == set(scalar._counts) & set(offered.tolist())
            # equal states: the next draw of the two generators is the
            # same one, also when the table filled mid-batch and the
            # draws past that offer were handed back
            assert (
                table._rng.bit_generator.state
                == scalar._rng.bit_generator.state
            )
            assert table._rng.random() == scalar._rng.random()
        assert len(table) <= capacity


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
        oracle, backend = twin_backends(name, capacity)
        scalar, scalar_frames = run_backend(oracle, batches)
        array, array_frames = run_backend(backend, batches)
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
        oracle, backend = twin_backends(name, flows)
        scalar, scalar_frames = run_batched(oracle, batches, slot_seconds=2.0)
        array, array_frames = run_batched(backend, batches, slot_seconds=2.0)
        assert scalar.prefixes == array.prefixes
        assert len(scalar_frames) == len(array_frames)
        for left, right in zip(scalar_frames, array_frames):
            assert np.allclose(left.rates, right.rates)

    @settings(max_examples=40, deadline=None)
    @given(
        batches=BATCHES,
        capacity=st.integers(1, 6),
        seed=st.integers(0, 3),
    )
    def test_sample_hold_batching_is_invisible_at_any_capacity(
        self, batches, capacity, seed
    ):
        """Sample-and-Hold needs no room to spare: its array table is
        the scalar one for any batch, so batched runs match frame for
        frame even while the table is full and turning flows away."""
        oracle, backend = twin_backends("sample-hold", capacity, seed)
        scalar, scalar_frames = run_batched(oracle, batches, slot_seconds=2.0)
        array, array_frames = run_batched(backend, batches, slot_seconds=2.0)
        assert scalar.prefixes == array.prefixes
        assert len(scalar_frames) == len(array_frames)
        for left, right in zip(scalar_frames, array_frames):
            assert np.allclose(left.rates, right.rates)
        assert oracle.peak_tracked == backend.peak_tracked

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
