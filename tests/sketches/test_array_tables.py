"""Unit tests for the array-native candidate tables.

The load-bearing guarantees: (1) the open-addressing index resolves
every tracked key and never resolves an untracked one, through
insertions, evictions and rebuilds; (2) each table honours its
summary's classical bounds — Space-Saving one-sided over-estimates
with ``untracked true <= min count``, Misra–Gries one-sided
under-estimates bounded by the decrement total; (3) capacity is a hard
bound however the batch arrives, Bloom gate in front or not; (4)
single-key batches reproduce the scalar sketches (the deep equivalence
lives in the property suite).
"""

import numpy as np
import pytest

from repro.errors import ClassificationError
from repro.sketches.array_tables import (
    NO_SLOT,
    ArrayMisraGries,
    ArraySpaceSaving,
)
from repro.sketches.bloom import gated_table

TABLES = (
    ("space-saving", lambda k: ArraySpaceSaving(k)),
    ("misra-gries", lambda k: ArrayMisraGries(k)),
)
#: The same tables behind a Bloom gate that turns away some of the
#: offers below (weights 0.5-20): the kernel's gated branch re-maps the
#: first-traffic order and the slots through the gate's subset.
GATED = tuple(
    (
        f"{name}-bloom",
        lambda k, make=make: gated_table(make(k), threshold_bytes=10.0),
    )
    for name, make in TABLES
)


def offer(table, keys, weights):
    keys = np.asarray(keys, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    return table.update_batch(keys, weights, np.arange(keys.size))


class TestKeyIndex:
    @pytest.mark.parametrize("name,make", TABLES + GATED)
    def test_probe_finds_every_tracked_key(self, name, make):
        rng = np.random.default_rng(5)
        table = make(16)
        for _ in range(40):
            m = int(rng.integers(1, 30))
            keys = rng.choice(400, size=m, replace=False)
            offer(table, keys, rng.uniform(0.5, 20.0, m))
            live = table.occupied()
            found = table._probe(table.key[live])
            assert np.array_equal(found, live)

    @pytest.mark.parametrize("name,make", TABLES + GATED)
    def test_probe_rejects_untracked_keys(self, name, make):
        rng = np.random.default_rng(6)
        table = make(8)
        for _ in range(20):
            keys = rng.choice(100, size=12, replace=False)
            offer(table, keys, rng.uniform(0.5, 20.0, 12))
        tracked = set(table.items())
        absent = np.array(
            [k for k in range(100, 140) if k not in tracked],
            dtype=np.int64,
        )
        assert (table._probe(absent) == NO_SLOT).all()

    def test_len_tracks_occupancy(self):
        table = ArraySpaceSaving(4)
        assert len(table) == 0
        offer(table, [1, 2], [1.0, 2.0])
        assert len(table) == 2
        offer(table, [3, 4, 5], [3.0, 4.0, 5.0])
        assert len(table) == 4

    def test_capacity_validated(self):
        with pytest.raises(ClassificationError):
            ArraySpaceSaving(0)

    @pytest.mark.parametrize("name,make", TABLES)
    @pytest.mark.parametrize("capacity", [0, -1])
    def test_every_table_refuses_capacity_below_one(
        self, name, make, capacity
    ):
        with pytest.raises(ClassificationError, match="capacity"):
            make(capacity)

    @pytest.mark.parametrize("name,make", TABLES + GATED)
    def test_estimate_reads_the_tracked_count(self, name, make):
        rng = np.random.default_rng(7)
        table = make(8)
        for _ in range(20):
            keys = rng.choice(60, size=10, replace=False)
            offer(table, keys, rng.uniform(0.5, 20.0, 10))
        items = table.items()
        assert items
        for key in range(60):
            assert table.estimate(key) == items.get(key, 0.0)

    @pytest.mark.parametrize("name,make", TABLES)
    def test_bare_table_has_no_gate_and_no_slot_state(self, name, make):
        """What the backend asks of any table, gated or not."""
        table = make(4)
        offer(table, [1, 2, 3], [5.0, 6.0, 7.0])
        before = table.items()
        table.end_slot()
        assert table.items() == before
        assert table.rejected_weight == 0.0


class TestBatchContract:
    @pytest.mark.parametrize("name,make", TABLES + GATED)
    def test_slots_point_at_the_offered_key(self, name, make):
        rng = np.random.default_rng(9)
        table = make(8)
        for _ in range(30):
            m = int(rng.integers(1, 25))
            keys = rng.choice(200, size=m, replace=False)
            update = offer(table, keys, rng.uniform(0.5, 20.0, m))
            tracked = update.slots >= 0
            assert np.array_equal(
                table.key[update.slots[tracked]], keys[tracked]
            )

    @pytest.mark.parametrize("name,make", TABLES + GATED)
    def test_capacity_never_exceeded(self, name, make):
        rng = np.random.default_rng(10)
        table = make(6)
        for _ in range(30):
            m = int(rng.integers(1, 40))
            offer(
                table,
                rng.choice(500, size=m, replace=False),
                rng.uniform(0.5, 20.0, m),
            )
            assert len(table) <= 6
            assert table.occupied().size == len(table)

    @pytest.mark.parametrize("name,make", TABLES + GATED)
    def test_negative_weights_rejected(self, name, make):
        table = make(4)
        with pytest.raises(ClassificationError):
            offer(table, [1], [-1.0])

    @pytest.mark.parametrize("name,make", TABLES + GATED)
    def test_first_traffic_fills_the_table_before_any_eviction(
        self, name, make
    ):
        """Until the table is full every offer that clears the gate
        takes a free slot at its own weight; nothing is evicted."""
        table = make(6)
        first = offer(table, [10, 11, 12], [40.0, 30.0, 20.0])
        assert (first.slots >= 0).all()
        second = offer(table, [13, 10, 14, 15], [50.0, 1.0, 60.0, 70.0])
        assert (second.slots >= 0).all()
        assert len(set(first.slots.tolist() + second.slots.tolist())) == 6
        assert table.items() == {
            10: 41.0,
            11: 30.0,
            12: 20.0,
            13: 50.0,
            14: 60.0,
            15: 70.0,
        }

    @pytest.mark.parametrize("name,make", TABLES + GATED)
    def test_every_offered_weight_is_counted_or_rejected(self, name, make):
        """``total_weight`` is what reached the table, ``rejected_weight``
        what the gate turned away; together they are every offer."""
        rng = np.random.default_rng(8)
        table = make(5)
        offered = 0.0
        for _ in range(25):
            m = int(rng.integers(1, 20))
            weights = rng.uniform(0.5, 20.0, m)
            offer(table, rng.choice(150, size=m, replace=False), weights)
            offered += float(weights.sum())
        gated = name.endswith("-bloom")
        assert (table.rejected_weight > 0.0) == gated
        assert table.total_weight + table.rejected_weight == pytest.approx(
            offered
        )

    @pytest.mark.parametrize("name,make", TABLES + GATED)
    def test_zero_weight_newcomers_not_admitted(self, name, make):
        table = make(4)
        update = offer(table, [7], [0.0])
        assert update.slots[0] == NO_SLOT
        assert len(table) == 0

    def test_flood_larger_than_table(self):
        """A single batch with more newcomers than capacity stays
        bounded and keeps one-sided estimates."""
        table = ArraySpaceSaving(4)
        keys = np.arange(100, dtype=np.int64)
        weights = np.linspace(1.0, 100.0, 100)
        offer(table, keys, weights)
        assert len(table) == 4
        for key, count in table.items().items():
            assert count >= weights[key] - 1e-9


class TestSpaceSavingGuarantees:
    def test_one_sided_and_untracked_below_min(self):
        rng = np.random.default_rng(11)
        table = ArraySpaceSaving(12)
        true: dict[int, float] = {}
        for _ in range(60):
            m = int(rng.integers(1, 50))
            keys = rng.choice(300, size=m, replace=False)
            weights = rng.uniform(0.1, 30.0, m)
            offer(table, keys, weights)
            for key, weight in zip(keys.tolist(), weights.tolist()):
                true[key] = true.get(key, 0.0) + weight
        items = table.items()
        minimum = min(items.values())
        for key, count in items.items():
            assert count >= true[key] - 1e-9
            assert table.guaranteed(key) <= true[key] + 1e-9
        for key, weight in true.items():
            if key not in items:
                assert weight <= minimum + 1e-9

    def test_heavy_keys_survive_mouse_floods(self):
        table = ArraySpaceSaving(4)
        offer(table, [1, 2], [1e6, 2e6])
        rng = np.random.default_rng(3)
        for start in range(0, 900, 30):
            keys = np.arange(100 + start, 130 + start, dtype=np.int64)
            offer(table, keys, rng.uniform(0.1, 2.0, 30))
        tracked = table.items()
        assert 1 in tracked and 2 in tracked

    def test_top_k_orders_by_count(self):
        table = ArraySpaceSaving(8)
        offer(table, [1, 2, 3], [5.0, 9.0, 1.0])
        assert [key for key, _ in table.top_k(2)] == [2, 1]


class TestTopK:
    @pytest.mark.parametrize("name,make", TABLES)
    def test_count_ties_break_by_key(self, name, make):
        table = make(8)
        offer(table, [9, 4, 6, 2], [5.0, 5.0, 8.0, 1.0])
        assert table.top_k(3) == [(6, 8.0), (4, 5.0), (9, 5.0)]
        assert table.top_k(10) == table.top_k(4)

    @pytest.mark.parametrize("name,make", TABLES)
    def test_negative_k_refused(self, name, make):
        table = make(4)
        assert table.top_k(0) == []
        with pytest.raises(ClassificationError, match="non-negative"):
            table.top_k(-1)


class TestMisraGriesGuarantees:
    def test_undercount_bounded_by_decrements(self):
        rng = np.random.default_rng(12)
        table = ArrayMisraGries(10)
        true: dict[int, float] = {}
        for _ in range(60):
            m = int(rng.integers(1, 50))
            keys = rng.choice(300, size=m, replace=False)
            weights = rng.uniform(0.1, 30.0, m)
            offer(table, keys, weights)
            for key, weight in zip(keys.tolist(), weights.tolist()):
                true[key] = true.get(key, 0.0) + weight
        bound = table.error_bound()
        items = table.items()
        for key, weight in true.items():
            estimate = items.get(key, 0.0)
            assert estimate <= weight + 1e-9
            assert weight <= estimate + bound + 1e-9

    def test_decrement_chain_survives_rounding(self):
        """Non-dyadic weights make offset arithmetic round; the chain
        must still free the dying minimum's slot (regression: the
        death test missed it by one ulp and popped an empty list)."""
        rng = np.random.default_rng(21)
        for capacity in (1, 2, 3, 5):
            table = ArrayMisraGries(capacity)
            for _ in range(60):
                m = int(rng.integers(1, 12))
                keys = rng.choice(60, size=m, replace=False)
                offer(table, keys, rng.uniform(0.01, 5.0, m))
                assert len(table) <= capacity

    def test_erosion_frees_then_admits_plainly(self):
        table = ArrayMisraGries(2)
        offer(table, [1, 2], [5.0, 5.0])
        # 3 erodes everyone by 3; 1 and 2 drop to 2.0, 3 is rejected
        update = offer(table, [3], [3.0])
        assert update.slots[0] == NO_SLOT
        assert table.items() == {1: 2.0, 2: 2.0}
        assert table.error_bound() == pytest.approx(3.0)

    def test_gate_fronts_it_like_space_saving(self):
        table = gated_table(ArrayMisraGries(4), threshold_bytes=100.0)
        update = offer(table, [1, 2], [500.0, 40.0])
        assert (update.slots >= 0).tolist() == [True, False]
        assert table.items() == {1: 500.0}
        assert table.rejected_weight == 40.0
        assert table.total_weight == 500.0
