"""Tests for the counting-Bloom admission gate."""

import numpy as np
import pytest

from repro.errors import ClassificationError
from repro.sketches.array_tables import NO_SLOT, ArraySpaceSaving
from repro.sketches.bloom import (
    BloomGate,
    CountingBloom,
    gated_table,
)


def keys_of(*values):
    return np.array(values, dtype=np.int64)


def weights_of(*values):
    return np.array(values, dtype=np.float64)


class TestCountingBloom:
    def test_validation(self):
        with pytest.raises(ClassificationError):
            CountingBloom(0)
        with pytest.raises(ClassificationError):
            CountingBloom(64, depth=0)

    def test_empty_calls(self):
        bloom = CountingBloom(64)
        assert bloom.estimate(keys_of()).size == 0
        assert bloom.add(keys_of(), weights_of()).size == 0

    def test_add_then_estimate(self):
        bloom = CountingBloom(1024)
        raised = bloom.add(keys_of(1, 2, 3), weights_of(10.0, 20.0, 30.0))
        assert raised.tolist() == [10.0, 20.0, 30.0]
        assert bloom.estimate(keys_of(1, 2, 3)).tolist() == [
            10.0,
            20.0,
            30.0,
        ]

    def test_estimates_accumulate(self):
        bloom = CountingBloom(1024)
        bloom.add(keys_of(7), weights_of(100.0))
        bloom.add(keys_of(7), weights_of(50.0))
        assert bloom.estimate(keys_of(7))[0] == 150.0

    def test_never_underestimates(self):
        # conservative update may inflate under collisions but the
        # estimate is always >= the true count
        bloom = CountingBloom(16, depth=2)
        rng = np.random.default_rng(3)
        truth = {}
        for _ in range(50):
            key = int(rng.integers(0, 1000))
            weight = float(rng.integers(1, 100))
            bloom.add(keys_of(key), weights_of(weight))
            truth[key] = truth.get(key, 0.0) + weight
        for key, total in truth.items():
            assert bloom.estimate(keys_of(key))[0] >= total

    def test_unseen_key_estimates_zero_when_sparse(self):
        bloom = CountingBloom(4096)
        bloom.add(keys_of(1), weights_of(1000.0))
        assert bloom.estimate(keys_of(999_999))[0] == 0.0

    def test_decay(self):
        bloom = CountingBloom(1024)
        bloom.add(keys_of(5), weights_of(400.0))
        bloom.decay(0.5)
        assert bloom.estimate(keys_of(5))[0] == 200.0
        with pytest.raises(ClassificationError):
            bloom.decay(1.5)

    def test_fill_fraction(self):
        bloom = CountingBloom(100, depth=1)
        assert bloom.fill_fraction == 0.0
        bloom.add(keys_of(1), weights_of(1.0))
        assert bloom.fill_fraction == pytest.approx(0.01)

    def test_seed_changes_layout(self):
        a = CountingBloom(64, seed=0)
        b = CountingBloom(64, seed=1)
        keys = keys_of(*range(32))
        assert not np.array_equal(a._indices(keys), b._indices(keys))


class TestBloomGate:
    def make(self, capacity=8, threshold=100.0, decay=0.5):
        inner = ArraySpaceSaving(capacity)
        return gated_table(
            inner, threshold_bytes=threshold, decay=decay, seed=1
        )

    def test_validation(self):
        bloom = CountingBloom(64)
        with pytest.raises(ClassificationError):
            BloomGate(bloom, threshold_bytes=-1.0)
        with pytest.raises(ClassificationError):
            BloomGate(bloom, decay=2.0)

    def test_below_threshold_rejected(self):
        table = self.make(threshold=100.0)
        update = table.update_batch(keys_of(1, 2), weights_of(10.0, 20.0))
        assert update.slots.tolist() == [NO_SLOT, NO_SLOT]
        assert len(table) == 0
        assert table.rejected_weight == 30.0

    def test_crossing_threshold_admits(self):
        table = self.make(threshold=100.0)
        table.update_batch(keys_of(1), weights_of(60.0))
        update = table.update_batch(keys_of(1), weights_of(60.0))
        # bloom counted 120 >= 100: admitted with this batch's bytes
        assert update.slots[0] != NO_SLOT
        assert table.estimate(1) == 60.0

    def test_tracked_keys_bypass_gate(self):
        table = self.make(threshold=100.0)
        table.update_batch(keys_of(1), weights_of(200.0))
        assert len(table) == 1
        before = table.rejected_weight
        update = table.update_batch(keys_of(1), weights_of(5.0))
        assert update.slots[0] != NO_SLOT
        assert table.rejected_weight == before
        assert table.estimate(1) == 205.0

    def test_zero_threshold_admits_everything(self):
        table = self.make(threshold=0.0)
        update = table.update_batch(keys_of(1, 2), weights_of(1.0, 2.0))
        assert (update.slots != NO_SLOT).all()

    def test_mixed_batch_slot_map_positions(self):
        table = self.make(threshold=100.0)
        update = table.update_batch(
            keys_of(1, 2, 3), weights_of(200.0, 5.0, 300.0)
        )
        assert update.slots[0] != NO_SLOT
        assert update.slots[1] == NO_SLOT
        assert update.slots[2] != NO_SLOT

    def test_order_subsetting(self):
        # eviction order must survive the gate's re-indexing: fill the
        # table through the gate with an explicit order and verify the
        # inner table holds exactly the admitted keys
        table = self.make(capacity=2, threshold=0.0)
        keys = keys_of(10, 11, 12)
        weights = weights_of(50.0, 40.0, 30.0)
        order = np.array([2, 1, 0], dtype=np.int64)
        update = table.update_batch(keys, weights, order)
        assert (update.slots != NO_SLOT).sum() <= 3
        assert len(table) == 2

    def test_end_slot_decays(self):
        table = self.make(threshold=100.0, decay=0.5)
        table.update_batch(keys_of(1), weights_of(90.0))
        table.end_slot()  # 90 -> 45
        update = table.update_batch(keys_of(1), weights_of(40.0))
        # 45 + 40 = 85 < 100: still rejected
        assert update.slots[0] == NO_SLOT

    def test_empty_batch(self):
        table = self.make()
        update = table.update_batch(keys_of(), weights_of())
        assert update.slots.size == 0

    def test_delegated_surface(self):
        table = self.make(threshold=0.0)
        table.update_batch(keys_of(1, 2), weights_of(30.0, 20.0))
        assert table.capacity == 8
        assert len(table) == 2
        assert table.total_weight == 50.0
        assert table.items() == {1: 30.0, 2: 20.0}
        assert table.top_k(1) == [(1, 30.0)]
        assert set(table.key[table.occupied()].tolist()) == {1, 2}

    def test_default_width_floor(self):
        table = gated_table(ArraySpaceSaving(4), threshold_bytes=1.0)
        assert table.gate.bloom.width == 1024
        wide = gated_table(ArraySpaceSaving(1000), threshold_bytes=1.0)
        assert wide.gate.bloom.width == 8000
