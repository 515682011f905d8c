"""Unit and property tests for the Misra–Gries summary, one key at a time."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ClassificationError
from repro.sketches.array_tables import ArrayMisraGries


def update(table, key, weight):
    """Offer one key: a single-key batch is the scalar update."""
    table.update_batch(np.array([key], dtype=np.int64), np.array([weight]))


class TestBasics:
    def test_exact_below_capacity(self):
        sketch = ArrayMisraGries(capacity=4)
        for key, weight in [(1, 5.0), (2, 3.0), (1, 2.0)]:
            update(sketch, key, weight)
        assert sketch.estimate(1) == 7.0
        assert sketch.estimate(2) == 3.0
        assert sketch.estimate(99) == 0.0
        assert sketch.error_bound() == 0.0

    def test_eviction_decrements(self):
        sketch = ArrayMisraGries(capacity=2)
        update(sketch, 1, 10.0)
        update(sketch, 2, 5.0)
        update(sketch, 3, 3.0)  # evicts weight from everyone
        assert len(sketch) <= 2
        assert sketch.error_bound() > 0

    def test_rejects_negative_weight(self):
        with pytest.raises(ClassificationError):
            update(ArrayMisraGries(2), 1, -1.0)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ClassificationError):
            ArrayMisraGries(0)

    def test_zero_weight_is_noop(self):
        sketch = ArrayMisraGries(2)
        update(sketch, 1, 0.0)
        assert len(sketch) == 0


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
    def test_underestimate_within_bound(self, stream, capacity):
        """The classic MG guarantee: true - bound <= estimate <= true."""
        sketch = ArrayMisraGries(capacity)
        truth: dict[int, float] = {}
        for key, weight in stream:
            update(sketch, key, weight)
            truth[key] = truth.get(key, 0.0) + weight
        bound = sketch.error_bound()
        assert bound <= sketch.total_weight / (capacity + 1) + 1e-6
        for key, true_weight in truth.items():
            estimate = sketch.estimate(key)
            assert estimate <= true_weight + 1e-9
            assert estimate >= true_weight - bound - 1e-9

    def test_heavy_hitters_have_no_false_negatives(self, rng):
        """Reading out every key whose estimate plus the error bound
        clears the threshold misses no key whose true weight does."""
        sketch = ArrayMisraGries(capacity=9)
        weights = {key: 1000.0 for key in range(3)}
        weights.update({key: 1.0 for key in range(100, 300)})
        items = [(k, w) for k, w in weights.items()]
        rng.shuffle(items)
        for key, weight in items:
            update(sketch, key, weight)
        bound = sketch.error_bound()
        found = {
            key
            for key, value in sketch.items().items()
            if value + bound > 500.0
        }
        assert {0, 1, 2} <= found
