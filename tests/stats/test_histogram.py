"""Unit tests for histogram containers."""

import numpy as np
import pytest

from repro.errors import InsufficientDataError
from repro.stats.histogram import Histogram, integer_histogram


class TestHistogram:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Histogram(edges=np.array([0.0, 1.0]), counts=np.array([1, 2]))

    def test_centers_and_total(self):
        histogram = Histogram(edges=np.array([0.0, 1.0, 2.0]),
                              counts=np.array([3, 5]))
        assert histogram.centers.tolist() == [0.5, 1.5]
        assert histogram.total == 8

    def test_mean(self):
        histogram = Histogram(edges=np.array([0.0, 2.0, 4.0]),
                              counts=np.array([1, 3]))
        assert histogram.mean() == pytest.approx((1.0 + 3 * 3.0) / 4)

    def test_mean_of_empty_rejected(self):
        histogram = Histogram(edges=np.array([0.0, 1.0]),
                              counts=np.array([0]))
        with pytest.raises(InsufficientDataError):
            histogram.mean()

    def test_nonzero_bins(self):
        histogram = Histogram(edges=np.array([0.0, 1.0, 2.0, 3.0]),
                              counts=np.array([2, 0, 1]))
        assert histogram.nonzero_bins() == [(0.5, 2), (2.5, 1)]


class TestIntegerHistogram:
    def test_one_bin_per_integer(self):
        histogram = integer_histogram(np.array([1.0, 1.0, 2.0, 5.0]))
        assert histogram.counts[1] == 2
        assert histogram.counts[2] == 1
        assert histogram.counts[5] == 1
        assert histogram.total == 4

    def test_rounding_half_up(self):
        histogram = integer_histogram(np.array([1.5, 2.4]))
        assert histogram.counts[2] == 2

    def test_clipping_accumulates_in_last_bin(self):
        histogram = integer_histogram(np.array([1.0, 50.0, 60.0]),
                                      max_value=10)
        assert histogram.counts[10] == 2
        assert histogram.total == 3  # nothing lost

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            integer_histogram(np.array([-1.0]))

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            integer_histogram(np.array([]))

    def test_centers_are_integers(self):
        histogram = integer_histogram(np.array([1.0, 3.0]))
        assert np.allclose(histogram.centers, np.arange(0, 4))
