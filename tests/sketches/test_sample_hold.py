"""Unit tests for Sample-and-Hold, one key at a time."""

import numpy as np
import pytest

from repro.errors import ClassificationError
from repro.sketches.array_tables import ArraySampleHold

#: Room for every key these tests offer, where the table size is not
#: what is under test.
ROOMY = 16


def update(table, key, weight):
    """Offer one key: a single-key batch is the scalar update."""
    table.update_batch(np.array([key], dtype=np.int64), np.array([weight]))


class TestBasics:
    def test_probability_one_samples_everything(self):
        table = ArraySampleHold(ROOMY, sampling_probability=1.0, seed=0)
        update(table, 1, 10.0)
        update(table, 1, 5.0)
        # First update samples immediately (counted from half the
        # triggering weight), later updates counted exactly.
        assert table.estimate(1) == 10.0 / 2.0 + 5.0
        assert len(table) == 1

    def test_tiny_probability_misses_small_flows(self):
        table = ArraySampleHold(ROOMY, sampling_probability=1e-9, seed=0)
        for _ in range(100):
            update(table, 1, 1.0)
        assert table.estimate(1) == 0.0

    def test_heavy_flow_gets_held(self):
        table = ArraySampleHold(ROOMY, sampling_probability=0.001, seed=3)
        for _ in range(200):
            update(table, 1, 100.0)
        assert table.estimate(1) > 0.0
        # Once held, counting is exact, so the estimate is a large
        # fraction of the true 20000.
        assert table.estimate(1) > 5000.0

    def test_max_entries_respected(self):
        table = ArraySampleHold(2, sampling_probability=1.0, seed=0)
        for key in (1, 2, 3, 4):
            update(table, key, 10.0)
        assert len(table) == 2

    def test_heavy_hitters_readout(self):
        table = ArraySampleHold(ROOMY, sampling_probability=1.0, seed=0)
        update(table, 1, 100.0)
        update(table, 2, 1.0)
        found = {key for key, count in table.items().items() if count > 10.0}
        assert found == {1}

    @pytest.mark.parametrize("probability", [0.0, 1.5, -0.1])
    def test_bad_probability_rejected(self, probability):
        with pytest.raises(ClassificationError):
            ArraySampleHold(ROOMY, sampling_probability=probability)

    def test_bad_max_entries_rejected(self):
        with pytest.raises(ClassificationError):
            ArraySampleHold(0, 0.5)

    def test_negative_weight_rejected(self):
        with pytest.raises(ClassificationError):
            update(ArraySampleHold(ROOMY, 0.5), 1, -1.0)

    def test_total_weight_tracked(self):
        table = ArraySampleHold(ROOMY, 0.5, seed=0)
        update(table, 1, 3.0)
        update(table, 2, 4.0)
        assert table.total_weight == 7.0
