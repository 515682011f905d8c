"""Unit and property tests for the Count-Min sketch and its candidates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ClassificationError
from repro.sketches.array_tables import ArrayCountMin
from repro.sketches.count_min import CountMinSketch


class TestBasics:
    def test_single_key(self):
        sketch = CountMinSketch(width=64, depth=4)
        sketch.update("flow", 10.0)
        sketch.update("flow", 5.0)
        assert sketch.estimate("flow") == 15.0

    def test_untouched_key_with_empty_table(self):
        sketch = CountMinSketch(width=64, depth=4)
        assert sketch.estimate("anything") == 0.0

    def test_sizing_from_error_bounds(self):
        sketch = CountMinSketch.from_error_bounds(epsilon=0.01, delta=0.01)
        assert sketch.width >= 272  # ceil(e / 0.01)
        assert sketch.depth >= 5  # ceil(ln 100)
        assert sketch.memory_cells() == sketch.width * sketch.depth

    def test_bad_parameters_rejected(self):
        with pytest.raises(ClassificationError):
            CountMinSketch(width=0, depth=1)
        with pytest.raises(ClassificationError):
            CountMinSketch.from_error_bounds(epsilon=0.0, delta=0.5)

    def test_negative_weight_rejected(self):
        with pytest.raises(ClassificationError):
            CountMinSketch(8, 2).update("a", -1.0)

    def test_deterministic_given_seed(self):
        first = CountMinSketch(32, 3, seed=7)
        second = CountMinSketch(32, 3, seed=7)
        for sketch in (first, second):
            sketch.update("x", 5.0)
            sketch.update("y", 3.0)
        assert first.estimate("x") == second.estimate("x")


class TestGuarantees:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=50),
                st.floats(min_value=0.1, max_value=50.0),
            ),
            min_size=1,
            max_size=200,
        )
    )
    def test_never_underestimates(self, stream):
        sketch = CountMinSketch(width=128, depth=4)
        truth: dict[int, float] = {}
        for key, weight in stream:
            sketch.update(key, weight)
            truth[key] = truth.get(key, 0.0) + weight
        for key, true_weight in truth.items():
            assert sketch.estimate(key) >= true_weight - 1e-9

    def test_expected_error_within_bound(self, rng):
        sketch = CountMinSketch(width=256, depth=5, seed=1)
        truth: dict[int, float] = {}
        for key in rng.integers(0, 2000, size=5000):
            key = int(key)
            sketch.update(key, 1.0)
            truth[key] = truth.get(key, 0.0) + 1.0
        errors = [sketch.estimate(k) - v for k, v in truth.items()]
        bound = sketch.error_bound()
        within = sum(1 for e in errors if e <= bound)
        # e/width total is the Markov bound; the vast majority of keys
        # must fall inside it.
        assert within / len(errors) > 0.9


def update(table, key, weight):
    """Offer one key: a single-key batch is the scalar update."""
    table.update_batch(np.array([key], dtype=np.int64), np.array([weight]))


class TestCandidates:
    def test_speaks_update_estimate_len(self):
        table = ArrayCountMin(2, width=64, depth=4)
        update(table, 1, 10.0)
        update(table, 2, 5.0)
        update(table, 1, 1.0)
        assert len(table) == 2
        assert table.estimate(1) == 11.0 and table.estimate(2) == 5.0
        assert table.estimate(3) == 0.0

    def test_newcomer_must_beat_the_minimum(self):
        table = ArrayCountMin(2, width=64, depth=4)
        for key, weight in ((1, 10.0), (2, 5.0), (3, 4.0)):
            update(table, key, weight)
        assert table.estimate(3) == 0.0  # 4 does not beat 5
        update(table, 3, 4.0)  # the sketch remembers: 8 does
        assert table.estimate(3) == 8.0 and table.estimate(2) == 0.0
        assert len(table) == 2

    def test_zero_weight_is_no_offer(self):
        table = ArrayCountMin(2, width=64, depth=4)
        update(table, 1, 0.0)
        assert len(table) == 0 and table.sketch.total_weight == 0.0
        with pytest.raises(ClassificationError):
            update(table, 1, -1.0)

    def test_capacity_validated(self):
        with pytest.raises(ClassificationError):
            ArrayCountMin(0, width=64, depth=4)
