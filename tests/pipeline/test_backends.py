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
    PipelineSpec,
    Population,
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

#: The invariants below must hold identically for the production
#: backends ``make_backend`` builds ("array") and for the scalar
#: oracle over the reference summaries (``oracles.scalar_backend``).
ENGINES = ("array", "scalar")
#: ... and for the production backends behind a Bloom gate and split
#: over two shards, the two wrappers every table runs under.
VARIANTS = ENGINES + ("bloom", "shards")
#: A gate threshold of about three full-size packets: the heavy flows
#: below pass it within a slot, the 64-byte mice never do.
GATE_BYTES = 4096.0


def build(name, capacity=None, engine="array", **kwargs):
    if engine == "scalar":
        return scalar_backend(capacity, **kwargs)
    if engine == "bloom":
        kwargs.update(admission="bloom", admission_threshold=GATE_BYTES)
    elif engine == "shards":
        kwargs.update(shards=2)
    return make_backend(name, capacity=capacity, **kwargs)


def batch(rows):
    """Build a PacketBatch from ``(timestamp, destination, size)`` rows."""
    timestamps = np.array([r[0] for r in rows], dtype=np.float64)
    destinations = np.array(
        [ipv4.parse_ipv4(r[1]) for r in rows], dtype=np.int64
    )
    sizes = np.array([r[2] for r in rows], dtype=np.int64)
    return PacketBatch(
        timestamps=timestamps,
        destinations=destinations,
        wire_bytes=sizes,
        packets_seen=len(rows),
    )


def heavy_tailed_rows(
    num_heavy=5, num_mice=120, num_slots=6, slot_seconds=10.0, seed=3
):
    """Packet rows with few persistent heavy flows and many mice."""
    rng = np.random.default_rng(seed)
    rows = []
    for slot in range(num_slots):
        t0 = slot * slot_seconds
        for i in range(num_heavy):
            for _ in range(30):
                stamp = t0 + rng.uniform(0, slot_seconds)
                rows.append((stamp, f"10.{i}.0.1", 1500))
        for _ in range(num_mice):
            mouse = rng.integers(0, num_mice)
            stamp = t0 + rng.uniform(0, slot_seconds)
            name = f"172.{16 + mouse // 250}.{mouse % 250}.1"
            rows.append((stamp, name, 64))
    rows.sort(key=lambda r: r[0])
    return rows


def run_backend_over(rows, backend, slot_seconds=10.0, chunks=1):
    aggregator = StreamingAggregator(
        FixedLengthResolver(24), slot_seconds=slot_seconds, backend=backend
    )
    frames = []
    for chunk in np.array_split(np.arange(len(rows)), chunks):
        frames += aggregator.ingest(batch([rows[i] for i in chunk]))
    frames += aggregator.finish()
    return aggregator, frames


class TestCapacityBound:
    #: Rows per ingested batch: many newcomers meet the full table at
    #: once, or a few at a time.
    @pytest.mark.parametrize("step", [100, 7])
    @pytest.mark.parametrize("engine", VARIANTS)
    def test_tracked_state_never_exceeds_capacity(self, step, engine):
        capacity = 8
        backend = build("space-saving", capacity, engine)
        rows = heavy_tailed_rows()
        aggregator = StreamingAggregator(
            FixedLengthResolver(24), slot_seconds=10.0, backend=backend
        )
        for i in range(0, len(rows), step):
            aggregator.ingest(batch(rows[i : i + step]))
            assert backend.tracked_flows <= capacity
        aggregator.finish()
        assert backend.peak_tracked <= capacity

    @pytest.mark.parametrize("chunks", [1, 9])
    # not split over two shards: four of the five heavy flows hash to
    # one shard of four entries (``test_sharded.py`` gives each room)
    @pytest.mark.parametrize("engine", ENGINES + ("bloom",))
    def test_heavy_flows_earn_rows(self, chunks, engine):
        backend = build("space-saving", 8, engine)
        aggregator, frames = run_backend_over(
            heavy_tailed_rows(), backend, chunks=chunks
        )
        heavy = {Prefix.parse(f"10.{i}.0.0/24") for i in range(5)}
        assert heavy <= set(aggregator.prefixes)
        # the heavy rows carry their real bandwidth in the final frame
        final = frames[-1]
        for prefix in heavy:
            row = aggregator.prefixes.index(prefix)
            assert final.rates[row] > 0


class TestResidualSemantics:
    @pytest.mark.parametrize("chunks", [1, 7])
    @pytest.mark.parametrize("engine", VARIANTS)
    def test_bytes_conserved_including_residual(self, chunks, engine):
        backend = build("space-saving", 6, engine)
        aggregator, frames = run_backend_over(
            heavy_tailed_rows(), backend, chunks=chunks
        )
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

    def test_real_default_route_earns_its_own_row(self):
        """A 0.0.0.0/0 RIB entry is a flow like any other: it gets a
        row of its own beside the residual label, which reads the same
        but carries only untracked bytes."""
        from repro.pipeline import StreamingPipeline
        from repro.pipeline.aggregator import AggregatingSlotSource
        from repro.routing.lpm import CompiledLpm

        resolver = CompiledLpm(
            [Prefix.parse("0.0.0.0/0"), Prefix.parse("10.0.0.0/8")]
        )
        backend = make_backend("space-saving", capacity=4)
        aggregator = StreamingAggregator(
            resolver, slot_seconds=10.0, backend=backend
        )
        rows = [(float(i), "10.0.0.1", 1500) for i in range(20)]
        rows += [(float(i) + 0.5, "192.0.2.1", 1000) for i in range(20)]
        rows.sort(key=lambda r: r[0])

        class Source:
            def batches(self):
                return iter([batch(rows)])

        pipeline = StreamingPipeline(
            AggregatingSlotSource(Source(), aggregator)
        )
        events = list(pipeline.events())
        population = aggregator.prefixes
        assert list(population) == [
            RESIDUAL_PREFIX,
            Prefix.parse("10.0.0.0/8"),
            RESIDUAL_PREFIX,
        ]
        # the default route's bytes sit on its own row; with room for
        # both flows nothing is untracked
        recovered = sum(event.frame.rates[2] for event in events) * 10 / 8
        assert recovered == pytest.approx(20 * 1000)
        assert all(event.frame.rates[0] == 0.0 for event in events)
        assert pipeline.series().mean_residual_fraction == 0.0

    def test_prefix_length_zero_granularity_under_sketch(self):
        """--prefix-length 0 keys everything to 0.0.0.0/0: one flow,
        under a sketch as under exact — the same verdicts and traffic
        fraction per slot, and nothing left in the residual."""
        from repro.pipeline import StreamingPipeline
        from repro.pipeline.aggregator import AggregatingSlotSource

        rows = [(float(i), "10.0.0.1", 100) for i in range(30)]
        rows += [(float(i) + 0.5, "172.16.0.1", 300) for i in range(30)]
        rows.sort(key=lambda r: r[0])

        class Source:
            def batches(self):
                return iter([batch(rows)])

        def run(backend):
            aggregator = StreamingAggregator(
                FixedLengthResolver(0), slot_seconds=10.0, backend=backend
            )
            pipeline = StreamingPipeline(
                AggregatingSlotSource(Source(), aggregator)
            )
            return list(pipeline.events()), pipeline.series()

        events, series = run(make_backend("space-saving", capacity=4))
        exact, exact_series = run(None)
        assert len(events) == len(exact) == 3
        for event, twin in zip(events, exact):
            assert list(event.frame.population) == [RESIDUAL_PREFIX] * 2
            assert event.frame.rates[0] == 0.0
            assert event.frame.rates[1] == twin.frame.rates[0]
            assert event.elephant_prefixes == twin.elephant_prefixes
            # thresholds bootstrap from link level, never zero
            assert event.verdict.thresholds.raw > 0.0
        assert series.mean_residual_fraction == 0.0
        assert series.mean_fraction == exact_series.mean_fraction

    @pytest.mark.parametrize("engine", VARIANTS)
    def test_residual_record_accounts_untracked_packets(self, engine):
        backend = build("space-saving", 4, engine)
        aggregator, frames = run_backend_over(heavy_tailed_rows(), backend)
        assert aggregator.prefixes[0] == RESIDUAL_PREFIX
        volumes = [frame.rates * 10.0 / 8.0 for frame in frames]
        assert sum(float(v[0]) for v in volumes) > 0
        total = sum(float(v.sum()) for v in volumes)
        assert total == pytest.approx(aggregator.stats.bytes_matched)


class TestRowIdentity:
    @pytest.mark.parametrize("engine", VARIANTS)
    def test_rows_stable_across_eviction_and_readmission(self, engine):
        """A flow evicted mid-run keeps its row when it comes back."""
        backend = build("space-saving", 2, engine)
        aggregator = StreamingAggregator(
            FixedLengthResolver(24), slot_seconds=10.0, backend=backend
        )
        # slot 0: A dominates; slot 1: B floods A out; slot 2: A returns
        aggregator.ingest(
            batch(
                [(1.0, "10.0.0.1", 1500)] * 20
                + [(12.0, "10.1.0.1", 1500)] * 40
                + [(12.5, "10.2.0.1", 1500)] * 40
                + [(22.0, "10.0.0.1", 1500)] * 60
            )
        )
        frames = aggregator.finish()
        row_a = aggregator.prefixes.index(Prefix.parse("10.0.0.0/24"))
        last = frames[-1] if frames else None
        assert last is not None
        assert last.rates[row_a] == pytest.approx(60 * 1500 * 8 / 10.0)

    def test_population_only_appends(self):
        backend = make_backend("space-saving", capacity=4)
        aggregator = StreamingAggregator(
            FixedLengthResolver(24), slot_seconds=10.0, backend=backend
        )
        seen: list[Prefix] = []
        rows = heavy_tailed_rows(num_heavy=3, num_mice=40)
        for i in range(0, len(rows), 50):
            for frame in aggregator.ingest(batch(rows[i : i + 50])):
                assert list(frame.population[: len(seen)]) == seen
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
        prefixes = [Prefix.parse(f"10.{i}.0.0/16") for i in range(num_flows)]
        rates = rng.uniform(1e3, 1e4, size=(num_flows, num_slots))
        rates[:4] *= 200.0  # four clear elephants
        return RateMatrix(prefixes, TimeAxis(0.0, 60.0, num_slots), rates)

    def test_column_sums_conserved(self):
        matrix = self.make_matrix()
        source = SketchSlotSource(
            MatrixSlotSource(matrix), make_backend("space-saving", capacity=6)
        )
        for frame in source.slots():
            assert frame.rates.sum() == pytest.approx(
                matrix.rates[:, frame.slot].sum()
            )

    def test_heavy_rows_survive_filtering(self):
        matrix = self.make_matrix()
        backend = make_backend("space-saving", capacity=8)
        source = SketchSlotSource(MatrixSlotSource(matrix), backend)
        frames = list(source.slots())
        population = list(frames[-1].population)
        for i in range(4):
            row = population.index(matrix.prefixes[i])
            assert frames[-1].rates[row] == pytest.approx(matrix.rates[i, -1])
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
            Prefix.parse(f"10.{i}.0.0/16") for i in range(3)
        )

        class Source:
            slot_seconds = 60.0

            def slots(self):
                for slot in range(8):
                    if slot == 3:
                        population.append(Prefix.parse("10.9.0.0/16"))
                    yield SlotFrame(
                        slot,
                        60.0 * slot,
                        np.full(len(population), 8e3),
                        population,
                    )

        backend = make_backend("space-saving", capacity=8)
        frames = list(SketchSlotSource(Source(), backend).slots())
        assert len(frames) == 8
        assert 0 < Population.walks < len(frames)
        assert list(frames[-1].population) == [RESIDUAL_PREFIX, *population]
        assert [frame.rates.sum() for frame in frames] == [
            8e3 * (3 if frame.slot < 3 else 4) for frame in frames
        ]


class TestFactoryAndBudget:
    @pytest.mark.parametrize(
        "name", ["bloom", "count-min", "sample-hold", "misra-gries"]
    )
    def test_unknown_backend_rejected(self, name):
        """The error names what is left to choose from."""
        with pytest.raises(ClassificationError) as raised:
            make_backend(name, capacity=4)
        assert str(raised.value) == (
            f"unknown backend {name!r}; expected one of exact, space-saving"
        )

    def test_sketch_requires_capacity(self):
        with pytest.raises(ClassificationError, match="capacity"):
            make_backend("space-saving")

    def test_exact_rejects_capacity(self):
        with pytest.raises(ClassificationError, match="exact"):
            make_backend("exact", capacity=4)

    def test_capacity_floor(self):
        with pytest.raises(ClassificationError):
            make_backend("space-saving", capacity=0)

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1024", 1024),
            ("64k", 64 << 10),
            ("2m", 2 << 20),
            ("1g", 1 << 30),
        ],
    )
    def test_parse_memory_budget(self, text, expected):
        assert parse_memory_budget(text) == expected

    @pytest.mark.parametrize("text", ["lots", "k", " 12Q "])
    def test_parse_memory_budget_rejects_garbage(self, text):
        """The error echoes what the user typed, suffix and all."""
        with pytest.raises(ClassificationError) as raised:
            parse_memory_budget(text)
        assert repr(text) in str(raised.value)

    @pytest.mark.parametrize("text", ["0", "0k", "-3m"])
    def test_parse_memory_budget_rejects_a_budget_under_one(self, text):
        with pytest.raises(ClassificationError, match="must be positive"):
            parse_memory_budget(text)

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

    @pytest.mark.parametrize("budget", ["160k", "640k", "2560k"])
    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_a_gated_budget_holds_its_gate(self, budget, shards):
        """The table, its pending arrays, its key index and the Bloom
        gate fit the budget together. The gate used to go uncharged:
        at 160k, K = 512 sat behind 128 KiB of counters, 180.5 KiB in
        all."""
        spec = PipelineSpec(
            backend="space-saving",
            memory_budget=budget,
            admission="bloom",
            shards=shards,
        )
        held = 0
        built = spec.build_backend()
        for shard in getattr(built, "shards", [built]):
            table = shard._table
            assert table.gate is not None
            parts = (shard, table, table._index, table.gate.bloom)
            held += sum(
                value.nbytes
                for part in parts
                for value in vars(part).values()
                if isinstance(value, np.ndarray)
            )
        assert held <= spec.budget_bytes
        ungated = spec.replace(admission="none")
        assert 0 < spec.resolved_capacity < ungated.resolved_capacity

    def test_a_budget_below_one_entry_and_its_gate_is_refused(self):
        # 32 KiB buys 102 plain entries, but the smallest gate alone
        # is 4 rows of 1024 float64 counters: 32 KiB
        assert capacity_for_budget("space-saving", 32 << 10) == 102
        with pytest.raises(ClassificationError, match="one tracked entry"):
            capacity_for_budget("space-saving", 32 << 10, admission="bloom")
        kept = capacity_for_budget("space-saving", 33 << 10, admission="bloom")
        assert kept == (1 << 10) // TRACKED_ENTRY_BYTES


class TestEmptyBatches:
    """accumulate() with zero packets is a no-op on every backend —
    the vectorized paths must not trip over empty arrays."""

    @pytest.mark.parametrize(
        "spec",
        [
            ("exact", {}),
            ("space-saving", {"capacity": 4}),
            ("space-saving", {"capacity": 4, "engine": "scalar"}),
            ("space-saving", {"capacity": 1}),
            ("space-saving", {"capacity": 1, "engine": "scalar"}),
            ("space-saving", {"capacity": 4, "shards": 2}),
            ("space-saving", {"capacity": 4, "shards": 3}),
            ("space-saving", {"capacity": 4, "engine": "bloom"}),
            ("space-saving", {"capacity": 1, "engine": "bloom"}),
            ("exact", {"shards": 2}),
        ],
    )
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

    @pytest.mark.parametrize(
        "keys",
        [
            [7],
            [3, 3, 3, 3],
            list(range(40, 0, -1)),
            [5, 0, 5, 9, 0, 5, 2],
            [0] * 65_536,
        ],
        ids=["single", "repeated", "distinct", "mixed", "one-key-65k"],
    )
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
        backend = make_backend("space-saving", capacity=4)
        assert isinstance(backend, ArraySketchAggregation)
        assert backend.name == "space-saving"

    @pytest.mark.parametrize("admission", ["none", "bloom"])
    def test_every_admission_builds_the_array_class(self, admission):
        backend = make_backend("space-saving", capacity=4, admission=admission)
        assert isinstance(backend, ArraySketchAggregation)
        assert backend.name == "space-saving"

    def test_sharded_backends_hold_array_tables(self):
        sharded = make_backend("space-saving", capacity=8, shards=2)
        assert all(
            isinstance(s, ArraySketchAggregation) for s in sharded.shards
        )


class TestPopulation:
    """The one prefix → row map under backends, shards and the
    collector."""

    def table(self, *texts):
        return PrefixColumns.of([Prefix.parse(text) for text in texts])

    def test_rows_number_unseen_prefixes_in_first_seen_order(self):
        population = Population()
        rows = population.rows(self.table("10.1.0.0/16", "10.0.0.0/16"))
        assert rows.tolist() == [0, 1]
        rows = population.rows(
            self.table("10.2.0.0/16", "10.0.0.0/16", "10.3.0.0/16")
        )
        assert rows.tolist() == [2, 1, 3]
        assert population.prefixes.texts() == [
            "10.1.0.0/16",
            "10.0.0.0/16",
            "10.2.0.0/16",
            "10.3.0.0/16",
        ]
        assert population.residual_row is None

    def test_rows_find_what_append_numbered(self):
        population = Population()
        population.append(self.table("10.0.0.0/8", "11.0.0.0/8"))
        assert population.rows(self.table("11.0.0.0/8")).tolist() == [1]
        population.append(self.table("12.0.0.0/8"))
        rows = population.rows(self.table("12.0.0.0/8", "13.0.0.0/8"))
        assert rows.tolist() == [2, 3]
        assert len(population.prefixes) == 4

    def test_a_repeated_rows_call_admits_nothing(self):
        population = Population(residual_row=0)
        table = self.table("10.0.0.0/8", "0.0.0.0/0", "10.0.0.0/24")
        first = population.rows(table)
        held = list(population.prefixes)
        assert population.rows(table).tolist() == first.tolist()
        assert population.rows(table[::-1]).tolist() == first[::-1].tolist()
        assert list(population.prefixes) == held

    def test_the_residual_label_is_never_a_row_of_a_prefix(self):
        population = Population(residual_row=0)
        assert list(population.prefixes) == [RESIDUAL_PREFIX]
        rows = population.rows(self.table("0.0.0.0/0", "10.0.0.0/8"))
        assert rows.tolist() == [1, 2]
        assert population.rows(self.table("0.0.0.0/0")).tolist() == [1]
        population.append(self.table("11.0.0.0/8"))
        assert 0 not in population.rows(
            self.table("11.0.0.0/8", "0.0.0.0/0", "12.0.0.0/8")
        )
        assert population.prefixes[0] == population.prefixes[1]


class TestBackendPopulation:
    """A backend's rows are its :class:`Population`'s: numbered in
    first-traffic order, each a prefix of the resolver, distinct, and
    past the residual label under a sketch."""

    def test_exact_rows_in_first_traffic_order(self):
        backend = make_backend("exact")
        rows = heavy_tailed_rows(num_heavy=3, num_mice=10, num_slots=2)
        run_backend_over(rows, backend, chunks=3)
        expected = {}
        for _, address, _ in rows:
            host = ipv4.parse_ipv4(address)
            expected.setdefault(Prefix(host >> 8 << 8, 24), None)
        assert backend.population.residual_row is None
        assert list(backend.prefixes) == list(expected)

    @pytest.mark.parametrize("chunks", [1, 3])
    @pytest.mark.parametrize("engine", VARIANTS)
    def test_sketch_rows_offset_past_residual(self, chunks, engine):
        backend = build("space-saving", 6, engine)
        rows = heavy_tailed_rows(num_heavy=3, num_mice=10, num_slots=2)
        aggregator, _ = run_backend_over(rows, backend, chunks=chunks)
        population = backend.population
        assert population.residual_row == 0
        assert population.prefixes[0] == RESIDUAL_PREFIX
        tracked = population.prefixes[1:]
        assert len(set(tracked)) == len(tracked) > 0
        assert set(tracked) <= set(aggregator.resolver.prefixes)
        # looked up, the tracked rows are where append put them
        found = population.rows(tracked)
        assert found.tolist() == list(range(1, len(population.prefixes)))
