"""Unit tests for busy-period extraction."""

import numpy as np
import pytest

from repro.analysis.busy import find_busy_period
from repro.errors import ClassificationError
from repro.flows.matrix import RateMatrix
from repro.flows.records import TimeAxis
from repro.net.prefix import Prefix


def matrix_with_load(per_slot_load, slot_seconds=3600.0):
    rates = np.asarray([per_slot_load], dtype=float)
    return RateMatrix(
        [Prefix.parse("10.0.0.0/8")],
        TimeAxis(0.0, slot_seconds, rates.shape[1]),
        rates,
    )


class TestFindBusyPeriod:
    def test_finds_peak_window(self):
        load = [1.0, 1.0, 5.0, 6.0, 5.0, 1.0, 1.0, 1.0]
        matrix = matrix_with_load(load)
        busy = find_busy_period(matrix, hours=3.0)
        assert busy.first_slot == 2
        assert busy.num_slots == 3
        assert busy.last_slot == 4

    def test_window_length_from_hours(self):
        matrix = matrix_with_load([1.0] * 72, slot_seconds=300.0)
        busy = find_busy_period(matrix, hours=5.0)
        assert busy.num_slots == 60

    def test_ties_resolve_to_earliest(self):
        matrix = matrix_with_load([2.0, 2.0, 1.0, 2.0, 2.0])
        busy = find_busy_period(matrix, hours=2.0)
        assert busy.first_slot == 0

    def test_whole_axis_window(self):
        matrix = matrix_with_load([1.0, 2.0, 3.0])
        busy = find_busy_period(matrix, hours=3.0)
        assert busy.first_slot == 0
        assert busy.num_slots == 3

    def test_window_longer_than_axis_rejected(self):
        matrix = matrix_with_load([1.0, 2.0])
        with pytest.raises(ClassificationError):
            find_busy_period(matrix, hours=10.0)

    def test_non_positive_hours_rejected(self):
        matrix = matrix_with_load([1.0, 2.0])
        with pytest.raises(ClassificationError):
            find_busy_period(matrix, hours=0.0)

    def test_total_bits_accounted(self):
        matrix = matrix_with_load([1.0, 4.0, 4.0, 1.0])
        busy = find_busy_period(matrix, hours=2.0)
        assert busy.total_bits == pytest.approx(8.0 * 3600.0)

    def test_busy_period_on_simulated_link_is_daytime(self, small_link):
        """The diurnal peak must be found during working hours."""
        busy = find_busy_period(small_link.matrix, hours=2.0)
        start_hour = (9.0 + busy.first_slot
                      * small_link.matrix.axis.slot_seconds / 3600.0) % 24
        assert 8.0 <= start_hour <= 19.0
