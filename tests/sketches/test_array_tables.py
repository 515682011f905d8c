"""Unit tests for the array-native candidate tables.

The load-bearing guarantees: (1) the open-addressing index resolves
every tracked key and never resolves an untracked one, through
insertions, evictions and rebuilds; (2) each table honours its
summary's classical bounds — Space-Saving one-sided over-estimates
with ``untracked true <= min count``, Misra–Gries one-sided
under-estimates bounded by the decrement total, Count-Min candidate
admission by estimate; (3) capacity is a hard bound however the batch
arrives; (4) single-key batches reproduce the scalar sketches (the
deep equivalence lives in the property suite).
"""

import numpy as np
import pytest

from repro.errors import ClassificationError
from repro.sketches.array_tables import (
    NO_SLOT,
    ArrayCountMin,
    ArrayMisraGries,
    ArraySampleHold,
    ArraySpaceSaving,
)
from repro.sketches.bloom import gated_table
from repro.sketches.count_min import CountMinSketch

TABLES = (
    ("space-saving", lambda k: ArraySpaceSaving(k)),
    ("misra-gries", lambda k: ArrayMisraGries(k)),
    ("count-min", lambda k: ArrayCountMin(k, width=4 * k, depth=4)),
    ("sample-hold", lambda k: ArraySampleHold(k, 0.05, seed=3)),
)


def offer(table, keys, weights):
    keys = np.asarray(keys, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    return table.update_batch(keys, weights, np.arange(keys.size))


class TestKeyIndex:
    @pytest.mark.parametrize("name,make", TABLES)
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

    @pytest.mark.parametrize("name,make", TABLES)
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
    def test_bare_table_has_no_gate_and_no_slot_state(self, name, make):
        """What the backend asks of any table, gated or not."""
        table = make(4)
        offer(table, [1, 2, 3], [5.0, 6.0, 7.0])
        before = table.items()
        table.end_slot()
        assert table.items() == before
        assert table.rejected_weight == 0.0


class TestBatchContract:
    @pytest.mark.parametrize("name,make", TABLES)
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

    @pytest.mark.parametrize("name,make", TABLES)
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

    @pytest.mark.parametrize("name,make", TABLES)
    def test_negative_weights_rejected(self, name, make):
        table = make(4)
        with pytest.raises(ClassificationError):
            offer(table, [1], [-1.0])

    @pytest.mark.parametrize("name,make", TABLES)
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


class TestCountMinCandidates:
    def test_shares_scalar_hash_family(self):
        table = ArrayCountMin(8, width=64, depth=4, seed=42)
        reference = CountMinSketch(width=64, depth=4, seed=42)
        rng = np.random.default_rng(13)
        keys = rng.integers(0, 500, size=300)
        weights = rng.uniform(0.5, 10.0, 300)
        for key, weight in zip(keys.tolist(), weights.tolist()):
            reference.update(key, weight)
        table.sketch.update_batch(keys, weights)
        probes = np.arange(500)
        assert np.allclose(
            table.sketch.estimate_batch(probes),
            [reference.estimate(int(k)) for k in probes],
        )

    def test_admission_by_estimate_tournament(self):
        table = ArrayCountMin(2, width=256, depth=4)
        offer(table, [1, 2], [100.0, 200.0])
        # a light newcomer loses to both stored candidates
        update = offer(table, [3], [1.0])
        assert update.slots[0] == NO_SLOT
        # a heavy newcomer beats the smallest candidate
        update = offer(table, [4], [500.0])
        assert update.slots[0] >= 0
        assert 4 in table.items()
        assert 1 not in table.items()

    def test_total_weight_delegates_to_sketch(self):
        table = ArrayCountMin(4, width=64, depth=2)
        offer(table, [1, 2], [3.0, 4.0])
        assert table.total_weight == pytest.approx(7.0)


class TestArraySampleHold:
    @pytest.mark.parametrize("probability", [0.0, -0.1, 1.5])
    def test_probability_validated(self, probability):
        with pytest.raises(ClassificationError, match="probability"):
            ArraySampleHold(4, probability)

    def test_certain_sampling_holds_first_traffic_until_full(self):
        table = ArraySampleHold(2, 1.0)
        keys = np.array([3, 5, 7, 9], dtype=np.int64)
        weights = np.array([10.0, 0.0, 20.0, 30.0])
        # offered 9, 5 (no bytes: never held), 3, 7 (table full by then)
        update = table.update_batch(keys, weights, np.array([3, 1, 0, 2]))
        assert table.items() == {9: 15.0, 3: 5.0}
        assert (update.slots >= 0).tolist() == [True, False, False, True]
        assert update.evicted.size == 0
        offer(table, [3, 7], [4.0, 99.0])
        assert table.items() == {9: 15.0, 3: 9.0}
        assert table.total_weight == 163.0

    def test_full_table_draws_nothing(self):
        table = ArraySampleHold(1, 1.0, seed=8)
        offer(table, [1], [10.0])
        state = table._rng.bit_generator.state
        offer(table, [2, 3, 1], [10.0, 10.0, 1.0])
        assert table._rng.bit_generator.state == state
        assert table.items() == {1: 6.0}

    def test_gate_fronts_it_like_any_table(self):
        table = gated_table(ArraySampleHold(4, 1.0), threshold_bytes=100.0)
        update = offer(table, [1, 2], [500.0, 40.0])
        assert (update.slots >= 0).tolist() == [True, False]
        assert table.items() == {1: 250.0}
        assert table.rejected_weight == 40.0
