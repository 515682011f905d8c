"""Tests for the bounded aggregation backends.

The load-bearing guarantees: (1) sketch backends never hold more than
``capacity`` flows of tracked state, however many flows the trace
carries; (2) bytes are conserved — tracked rows plus the residual row
always sum to the matched traffic; (3) rows keep their positional
identity across eviction and re-admission; (4) the exact backend is
bit-compatible with the aggregator's historical behaviour.
"""

import numpy as np
import pytest

from repro.errors import ClassificationError
from oracles import scalar_backend
from repro.net import ipv4
from repro.net.prefix import Prefix, PrefixColumns
from repro.pipeline import (
    RESIDUAL_PREFIX,
    ArraySketchAggregation,
    MatrixSlotSource,
    SketchAggregation,
    SlotFrame,
    SketchSlotSource,
    StreamingAggregator,
    capacity_for_budget,
    make_backend,
    parse_memory_budget,
)
from repro.pipeline.backends import TRACKED_ENTRY_BYTES, group_by_row
from repro.pipeline.sources import PacketBatch
from repro.flows.matrix import RateMatrix
from repro.flows.records import TimeAxis
from repro.routing.lpm import FixedLengthResolver
from repro.sketches import ArraySampleHold, CountMinCandidates

SKETCH_NAMES = ("space-saving", "misra-gries", "count-min", "sample-hold")
#: The invariants below must hold identically for the production
#: backends ``make_backend`` builds ("array") and for the scalar
#: oracle over the reference summaries (``oracles.scalar_backend``).
ENGINES = ("array", "scalar")


def build(name, capacity=None, engine="array", **kwargs):
    if engine == "scalar":
        return scalar_backend(name, capacity, **kwargs)
    if "sampling_probability" in kwargs:
        # not a factory argument: the backend is handed a table
        table = ArraySampleHold(capacity, kwargs["sampling_probability"])
        return ArraySketchAggregation(table, name)
    return make_backend(name, capacity=capacity, **kwargs)


def batch(rows):
    """Build a PacketBatch from ``(timestamp, destination, size)`` rows."""
    timestamps = np.array([r[0] for r in rows], dtype=np.float64)
    destinations = np.array([ipv4.parse_ipv4(r[1]) for r in rows],
                            dtype=np.int64)
    sizes = np.array([r[2] for r in rows], dtype=np.int64)
    return PacketBatch(
        timestamps=timestamps,
        sources=np.zeros(len(rows), dtype=np.int64),
        destinations=destinations,
        protocols=np.zeros(len(rows), dtype=np.int64),
        wire_bytes=sizes,
        packets_seen=len(rows),
    )


def heavy_tailed_rows(num_heavy=5, num_mice=120, num_slots=6,
                      slot_seconds=10.0, seed=3):
    """Packet rows with few persistent heavy flows and many mice."""
    rng = np.random.default_rng(seed)
    rows = []
    for slot in range(num_slots):
        t0 = slot * slot_seconds
        for i in range(num_heavy):
            for _ in range(30):
                rows.append((t0 + rng.uniform(0, slot_seconds),
                             f"10.{i}.0.1", 1500))
        for _ in range(num_mice):
            mouse = rng.integers(0, num_mice)
            rows.append((t0 + rng.uniform(0, slot_seconds),
                         f"172.{16 + mouse // 250}.{mouse % 250}.1", 64))
    rows.sort(key=lambda r: r[0])
    return rows


def run_backend_over(rows, backend, slot_seconds=10.0, chunks=1):
    aggregator = StreamingAggregator(FixedLengthResolver(24),
                                     slot_seconds=slot_seconds,
                                     backend=backend)
    frames = []
    for chunk in np.array_split(np.arange(len(rows)), chunks):
        frames += aggregator.ingest(batch([rows[i] for i in chunk]))
    frames += aggregator.finish()
    return aggregator, frames


class TestCapacityBound:
    @pytest.mark.parametrize("name", SKETCH_NAMES)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_tracked_state_never_exceeds_capacity(self, name, engine):
        capacity = 8
        backend = build(name, capacity, engine)
        rows = heavy_tailed_rows()
        aggregator = StreamingAggregator(FixedLengthResolver(24),
                                         slot_seconds=10.0,
                                         backend=backend)
        for i in range(0, len(rows), 100):
            aggregator.ingest(batch(rows[i:i + 100]))
            assert backend.tracked_flows <= capacity
        aggregator.finish()
        assert backend.peak_tracked <= capacity

    @pytest.mark.parametrize("name", SKETCH_NAMES)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_heavy_flows_earn_rows(self, name, engine):
        # sample-hold never evicts, so held mice occupy entries for the
        # whole run: give it headroom and a sampling rate that catches
        # the heavy flows quickly but rarely holds a 64-byte mouse
        backend = (build(name, 8, engine)
                   if name != "sample-hold"
                   else build(name, 16, engine,
                              sampling_probability=1e-4))
        aggregator, frames = run_backend_over(heavy_tailed_rows(), backend)
        heavy = {Prefix.parse(f"10.{i}.0.0/24") for i in range(5)}
        assert heavy <= set(aggregator.prefixes)
        # the heavy rows carry their real bandwidth in the final frame
        final = frames[-1]
        for prefix in heavy:
            row = aggregator.prefixes.index(prefix)
            assert final.rates[row] > 0


class TestCountMinHeapBound:
    def test_candidate_heap_stays_bounded_on_long_streams(self):
        """Re-offering a stable candidate set must not grow the lazy
        heap with the stream (stale entries are pruned by rebuild).
        Scalar-reference specific: the array table has no lazy heap."""
        candidates = CountMinCandidates(8, width=32, depth=4)
        backend = SketchAggregation(candidates, 8, "count-min")
        aggregator = StreamingAggregator(FixedLengthResolver(24),
                                         slot_seconds=1.0,
                                         backend=backend)
        for slot in range(500):
            aggregator.ingest(batch([
                (float(slot) + 0.1 * i, f"10.{i}.0.1", 1000)
                for i in range(8)
            ]))
        assert len(candidates._heap) <= 4 * backend.capacity
        assert backend.tracked_flows <= backend.capacity


class TestResidualSemantics:
    @pytest.mark.parametrize("name", SKETCH_NAMES)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_bytes_conserved_including_residual(self, name, engine):
        backend = build(name, 6, engine)
        aggregator, frames = run_backend_over(heavy_tailed_rows(), backend,
                                              chunks=7)
        recovered = sum(float(f.rates.sum()) for f in frames) * 10.0 / 8.0
        assert recovered == pytest.approx(aggregator.stats.bytes_matched)

    def test_residual_row_is_row_zero(self):
        backend = make_backend("space-saving", capacity=4)
        aggregator, frames = run_backend_over(heavy_tailed_rows(), backend)
        assert backend.residual_row == 0
        assert aggregator.prefixes[0] == RESIDUAL_PREFIX
        for frame in frames:
            assert frame.residual_row == 0

    def test_exact_backend_has_no_residual(self):
        aggregator, frames = run_backend_over(heavy_tailed_rows(), None)
        assert aggregator.backend.residual_row is None
        assert RESIDUAL_PREFIX not in aggregator.prefixes
        for frame in frames:
            assert frame.residual_row is None

    def test_real_default_route_folds_into_residual(self):
        """A 0.0.0.0/0 RIB entry must not duplicate the residual
        prefix in the population — its traffic joins the residual."""
        from repro.pipeline import run_stream
        from repro.pipeline.aggregator import AggregatingSlotSource
        from repro.routing.lpm import CompiledLpm

        resolver = CompiledLpm([Prefix.parse("0.0.0.0/0"),
                                Prefix.parse("10.0.0.0/8")])
        backend = make_backend("space-saving", capacity=4)
        aggregator = StreamingAggregator(resolver, slot_seconds=10.0,
                                         backend=backend)
        rows = [(float(i), "10.0.0.1", 1500) for i in range(20)]
        rows += [(float(i) + 0.5, "192.0.2.1", 1000) for i in range(20)]
        rows.sort(key=lambda r: r[0])

        class Source:
            def batches(self):
                return iter([batch(rows)])

        result, series = run_stream(
            AggregatingSlotSource(Source(), aggregator))
        population = aggregator.prefixes
        assert population.count(RESIDUAL_PREFIX) == 1
        assert population[0] == RESIDUAL_PREFIX
        # default-route bytes are conserved in the residual row
        recovered = float(sum(
            result.matrix.rates[0] * 10.0 / 8.0
        ))
        assert recovered == pytest.approx(20 * 1000)
        assert series.mean_residual_fraction > 0.0

    def test_prefix_length_zero_granularity_under_sketch(self):
        """--prefix-length 0 keys everything to 0.0.0.0/0: the whole
        link is 'other traffic', and the full pipeline still runs —
        zero elephants, thresholds unstarted, traffic conserved."""
        from repro.pipeline import StreamingPipeline
        from repro.pipeline.aggregator import AggregatingSlotSource

        backend = make_backend("misra-gries", capacity=4)
        aggregator = StreamingAggregator(FixedLengthResolver(0),
                                         slot_seconds=10.0,
                                         backend=backend)
        rows = [(float(i), "10.0.0.1", 100) for i in range(30)]
        rows += [(float(i) + 0.5, "172.16.0.1", 300) for i in range(30)]
        rows.sort(key=lambda r: r[0])

        class Source:
            def batches(self):
                return iter([batch(rows)])

        pipeline = StreamingPipeline(
            AggregatingSlotSource(Source(), aggregator))
        events = list(pipeline.events())
        assert len(events) == 3
        for event in events:
            assert list(event.frame.population) == [RESIDUAL_PREFIX]
            assert event.verdict.num_elephants == 0
            # thresholds bootstrap from link level, never zero
            assert event.verdict.thresholds.raw > 0.0
        series = pipeline.series()
        assert series.mean_residual_fraction == pytest.approx(1.0)
        assert series.mean_fraction == 0.0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_residual_record_accounts_untracked_packets(self, engine):
        backend = build("misra-gries", 4, engine)
        aggregator, frames = run_backend_over(heavy_tailed_rows(), backend)
        assert aggregator.prefixes[0] == RESIDUAL_PREFIX
        volumes = [frame.rates * 10.0 / 8.0 for frame in frames]
        assert sum(float(v[0]) for v in volumes) > 0
        total = sum(float(v.sum()) for v in volumes)
        assert total == pytest.approx(aggregator.stats.bytes_matched)


class TestRowIdentity:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_rows_stable_across_eviction_and_readmission(self, engine):
        """A flow evicted mid-run keeps its row when it comes back."""
        backend = build("space-saving", 2, engine)
        aggregator = StreamingAggregator(FixedLengthResolver(24),
                                         slot_seconds=10.0,
                                         backend=backend)
        # slot 0: A dominates; slot 1: B floods A out; slot 2: A returns
        aggregator.ingest(batch(
            [(1.0, "10.0.0.1", 1500)] * 20
            + [(12.0, "10.1.0.1", 1500)] * 40
            + [(12.5, "10.2.0.1", 1500)] * 40
            + [(22.0, "10.0.0.1", 1500)] * 60
        ))
        frames = aggregator.finish()
        row_a = aggregator.prefixes.index(Prefix.parse("10.0.0.0/24"))
        last = frames[-1] if frames else None
        assert last is not None
        assert last.rates[row_a] == pytest.approx(60 * 1500 * 8 / 10.0)

    def test_population_only_appends(self):
        backend = make_backend("space-saving", capacity=4)
        aggregator = StreamingAggregator(FixedLengthResolver(24),
                                         slot_seconds=10.0,
                                         backend=backend)
        seen: list[Prefix] = []
        rows = heavy_tailed_rows(num_heavy=3, num_mice=40)
        for i in range(0, len(rows), 50):
            for frame in aggregator.ingest(batch(rows[i:i + 50])):
                assert list(frame.population[:len(seen)]) == seen
                seen = list(frame.population)


class TestExactBackendCompatibility:
    def test_default_and_named_exact_identical(self):
        rows = heavy_tailed_rows(num_heavy=3, num_mice=30, num_slots=4)
        default, default_frames = run_backend_over(rows, None, chunks=3)
        named, named_frames = run_backend_over(
            rows, make_backend("exact"), chunks=3
        )
        assert default.prefixes == named.prefixes
        assert len(default_frames) == len(named_frames)
        for a, b in zip(default_frames, named_frames):
            assert np.array_equal(a.rates, b.rates)
        assert default.stats == named.stats


class TestSketchSlotSource:
    def make_matrix(self, num_flows=30, num_slots=5, seed=11):
        rng = np.random.default_rng(seed)
        prefixes = [Prefix.parse(f"10.{i}.0.0/16")
                    for i in range(num_flows)]
        rates = rng.uniform(1e3, 1e4, size=(num_flows, num_slots))
        rates[:4] *= 200.0  # four clear elephants
        return RateMatrix(prefixes, TimeAxis(0.0, 60.0, num_slots), rates)

    def test_column_sums_conserved(self):
        matrix = self.make_matrix()
        source = SketchSlotSource(MatrixSlotSource(matrix),
                                  make_backend("space-saving", capacity=6))
        for frame in source.slots():
            assert frame.rates.sum() == pytest.approx(
                matrix.rates[:, frame.slot].sum())

    def test_heavy_rows_survive_filtering(self):
        matrix = self.make_matrix()
        backend = make_backend("misra-gries", capacity=8)
        source = SketchSlotSource(MatrixSlotSource(matrix), backend)
        frames = list(source.slots())
        population = list(frames[-1].population)
        for i in range(4):
            row = population.index(matrix.prefixes[i])
            assert frames[-1].rates[row] == pytest.approx(
                matrix.rates[i, -1])
        assert backend.peak_tracked <= 8

    def test_boxed_population_is_unboxed_per_population_not_per_slot(self):
        """The backend is handed the frame population as columns: a
        boxed one is unboxed when first seen, and again only when a
        live one has grown."""
        class Population(list):
            walks = 0

            def __iter__(self):
                Population.walks += 1
                return super().__iter__()

        population = Population(
            Prefix.parse(f"10.{i}.0.0/16") for i in range(3))

        class Source:
            slot_seconds = 60.0

            def slots(self):
                for slot in range(8):
                    if slot == 3:
                        population.append(Prefix.parse("10.9.0.0/16"))
                    yield SlotFrame(slot, 60.0 * slot,
                                    np.full(len(population), 8e3),
                                    population)

        frames = list(SketchSlotSource(
            Source(), make_backend("space-saving", capacity=8)).slots())
        assert len(frames) == 8
        assert 0 < Population.walks < len(frames)
        assert list(frames[-1].population) == [RESIDUAL_PREFIX, *population]
        assert [frame.rates.sum() for frame in frames] == \
            [8e3 * (3 if frame.slot < 3 else 4) for frame in frames]


class TestFactoryAndBudget:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ClassificationError, match="unknown backend"):
            make_backend("bloom", capacity=4)

    def test_sketch_requires_capacity(self):
        with pytest.raises(ClassificationError, match="capacity"):
            make_backend("space-saving")

    def test_exact_rejects_capacity(self):
        with pytest.raises(ClassificationError, match="exact"):
            make_backend("exact", capacity=4)

    def test_capacity_floor(self):
        with pytest.raises(ClassificationError):
            make_backend("count-min", capacity=0)

    @pytest.mark.parametrize("text,expected", [
        ("1024", 1024),
        ("64k", 64 << 10),
        ("2m", 2 << 20),
        ("1g", 1 << 30),
    ])
    def test_parse_memory_budget(self, text, expected):
        assert parse_memory_budget(text) == expected

    @pytest.mark.parametrize("text", ["lots", "k", " 12Q "])
    def test_parse_memory_budget_rejects_garbage(self, text):
        """The error echoes what the user typed, suffix and all."""
        with pytest.raises(ClassificationError) as raised:
            parse_memory_budget(text)
        assert repr(text) in str(raised.value)

    def test_capacity_for_budget_scales(self):
        small = capacity_for_budget("space-saving", 64 << 10)
        large = capacity_for_budget("space-saving", 1 << 20)
        assert small == (64 << 10) // TRACKED_ENTRY_BYTES
        assert large > small

    def test_capacity_for_budget_exact_rejected(self):
        with pytest.raises(ClassificationError):
            capacity_for_budget("exact", 1 << 20)

    def test_budget_below_one_entry_rejected(self):
        with pytest.raises(ClassificationError):
            capacity_for_budget("space-saving", 16)


class TestEmptyBatches:
    """accumulate() with zero packets is a no-op on every backend —
    the vectorized paths must not trip over empty arrays."""

    @pytest.mark.parametrize("spec", [
        ("exact", {}),
        ("space-saving", {"capacity": 4}),
        ("space-saving", {"capacity": 4, "engine": "scalar"}),
        ("misra-gries", {"capacity": 4}),
        ("count-min", {"capacity": 4}),
        ("space-saving", {"capacity": 4, "shards": 2}),
        ("exact", {"shards": 2}),
    ])
    def test_empty_accumulate_is_noop(self, spec):
        name, kwargs = spec
        backend = build(name, **kwargs)
        empty = np.empty(0, dtype=np.int64)
        backend.accumulate(empty, empty, np.empty(0), PrefixColumns())
        assert backend.tracked_flows == 0
        vector = backend.close_slot()
        assert float(vector.sum()) == 0.0


def group_by_unique(keys, sizes):
    """The sort-based group-by ``group_by_row`` replaced."""
    unique, first_index, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    return unique, np.bincount(inverse, weights=sizes), first_index


class TestGroupByRow:
    """The dense group-by under every backend equals the np.unique
    one: same keys, same first packet, same per-key sums."""

    @pytest.mark.parametrize("keys", [
        [7],
        [3, 3, 3, 3],
        list(range(40, 0, -1)),
        [5, 0, 5, 9, 0, 5, 2],
        [0] * 65_536,
    ], ids=["single", "repeated", "distinct", "mixed", "one-key-65k"])
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_equals_sorting_oracle(self, keys, dtype):
        keys = np.asarray(keys, dtype=np.int64)
        rng = np.random.default_rng(keys.size)
        sizes = rng.integers(40, 1501, keys.size).astype(dtype)
        for got, expected in zip(
            group_by_row(keys, sizes), group_by_unique(keys, sizes)
        ):
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_dense_batches(self, seed):
        rng = np.random.default_rng(seed)
        population = int(rng.integers(1, 30_000))
        keys = rng.zipf(1.3, 65_536) % population
        sizes = rng.uniform(0.0, 1500.0, keys.size)
        unique, weights, first = group_by_row(keys, sizes)
        expected = group_by_unique(keys, sizes)
        assert np.array_equal(unique, expected[0])
        assert np.array_equal(first, expected[2])
        # both add each key's packets in arrival order: bit-equal
        assert np.array_equal(weights, expected[1])

    def test_integer_byte_counts_stay_exact(self):
        keys = np.zeros(100_000, dtype=np.int64)
        sizes = np.full(keys.size, 1499, dtype=np.int64)
        _, weights, _ = group_by_row(keys, sizes)
        assert weights.tolist() == [1499.0 * keys.size]

    def test_zero_byte_keys_are_still_groups(self):
        unique, weights, first = group_by_row(
            np.array([4, 2, 4]), np.array([0.0, 0.0, 0.0])
        )
        assert unique.tolist() == [2, 4]
        assert weights.tolist() == [0.0, 0.0]
        assert first.tolist() == [1, 0]


class TestFactoryClasses:
    def test_sketch_names_build_array_tables(self):
        from repro.pipeline import ArraySketchAggregation
        backend = make_backend("space-saving", capacity=4)
        assert isinstance(backend, ArraySketchAggregation)
        assert backend.name == "space-saving"

    @pytest.mark.parametrize("name", SKETCH_NAMES)
    def test_no_name_builds_the_scalar_class(self, name):
        backend = make_backend(name, capacity=4)
        assert isinstance(backend, ArraySketchAggregation)
        assert backend.name == name

    def test_sharded_backends_hold_array_tables(self):
        from repro.pipeline import ArraySketchAggregation
        sharded = make_backend("misra-gries", capacity=8, shards=2)
        assert all(isinstance(s, ArraySketchAggregation)
                   for s in sharded.shards)


class TestRowKeys:
    """row_keys() is the public inner-row → key contract the sharded
    merge is built on: position i owns row i (plus the residual
    offset), in assignment order, append-only."""

    def test_exact_rows_in_assignment_order(self):
        backend = make_backend("exact")
        rows = heavy_tailed_rows(num_heavy=3, num_mice=10, num_slots=2)
        aggregator, _ = run_backend_over(rows, backend)
        keys = backend.row_keys()
        assert len(keys) == backend.num_rows
        assert backend.row_keys(2) == keys[2:]
        assert backend.row_keys(len(keys)) == []
        for index, key in enumerate(keys):
            # re-resolve through the aggregator's resolver: row i's key
            # must map to prefix i of the emitted population
            assert aggregator.resolver.prefixes[key] == \
                backend.prefixes[index]

    @pytest.mark.parametrize("name", SKETCH_NAMES)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_sketch_rows_offset_past_residual(self, name, engine):
        backend = build(name, 6, engine)
        rows = heavy_tailed_rows(num_heavy=3, num_mice=10, num_slots=2)
        aggregator, _ = run_backend_over(rows, backend)
        keys = backend.row_keys()
        assert len(keys) == backend.num_rows - 1
        for index, key in enumerate(keys):
            assert aggregator.resolver.prefixes[key] == \
                backend.prefixes[index + 1]
