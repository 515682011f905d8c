"""Unit and property tests for Space-Saving, one key at a time."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ClassificationError
from repro.sketches.array_tables import ArraySpaceSaving


def update(table, key, weight):
    """Offer one key: a single-key batch is the scalar update."""
    table.update_batch(np.array([key], dtype=np.int64), np.array([weight]))


class TestBasics:
    def test_exact_below_capacity(self):
        sketch = ArraySpaceSaving(4)
        update(sketch, 1, 10.0)
        update(sketch, 2, 5.0)
        update(sketch, 1, 1.0)
        assert sketch.estimate(1) == 11.0
        assert sketch.guaranteed(1) == 11.0
        assert sketch.top_k(1) == [(1, 11.0)]

    def test_eviction_inherits_count(self):
        sketch = ArraySpaceSaving(2)
        update(sketch, 1, 10.0)
        update(sketch, 2, 5.0)
        update(sketch, 3, 1.0)  # evicts 2 (min), inherits 5.0
        assert len(sketch) == 2
        assert sketch.estimate(3) == 6.0
        assert sketch.guaranteed(3) == 1.0
        assert sketch.estimate(2) == 0.0

    def test_capacity_validated(self):
        with pytest.raises(ClassificationError):
            ArraySpaceSaving(0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ClassificationError):
            update(ArraySpaceSaving(2), 1, -1.0)

    def test_top_k_bounds(self):
        sketch = ArraySpaceSaving(4)
        update(sketch, 1, 1.0)
        assert sketch.top_k(10) == [(1, 1.0)]
        assert sketch.top_k(0) == []
        with pytest.raises(ClassificationError):
            sketch.top_k(-1)


class TestGuarantees:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30),
                st.floats(min_value=0.1, max_value=100.0),
            ),
            min_size=1,
            max_size=300,
        ),
        st.integers(min_value=2, max_value=16),
    )
    def test_overestimate_bounded(self, stream, capacity):
        """Space-Saving guarantee: true <= estimate <= true + min_count."""
        sketch = ArraySpaceSaving(capacity)
        truth: dict[int, float] = {}
        for key, weight in stream:
            update(sketch, key, weight)
            truth[key] = truth.get(key, 0.0) + weight
        monitored = dict(sketch.top_k(capacity))
        min_count = min(monitored.values()) if monitored else 0.0
        for key, estimate in monitored.items():
            true_weight = truth.get(key, 0.0)
            assert estimate >= true_weight - 1e-9
            assert estimate <= true_weight + min_count + 1e-9

    def test_heavy_keys_always_monitored(self, rng):
        """A key above total/capacity cannot be evicted."""
        sketch = ArraySpaceSaving(10)
        items = [(0, 50.0)] * 20 + [(i, 1.0) for i in range(1, 301)]
        rng.shuffle(items)
        for key, weight in items:
            update(sketch, key, weight)
        assert sketch.estimate(0) >= 1000.0
        assert 0 in dict(sketch.top_k(3))
