"""Unit tests for the Hill estimator, the aest test's cross-check."""

import numpy as np
import pytest
from oracles import hill_estimator

from repro.errors import InsufficientDataError


class TestHillEstimator:
    @pytest.mark.parametrize("alpha", [0.8, 1.2, 1.8])
    def test_recovers_pareto_index(self, rng, alpha):
        samples = rng.pareto(alpha, 30_000) + 1.0
        estimate = hill_estimator(samples, k=1500)
        assert estimate == pytest.approx(alpha, rel=0.15)

    def test_k_bounds_checked(self):
        samples = np.arange(1.0, 11.0)
        with pytest.raises(ValueError):
            hill_estimator(samples, k=0)
        with pytest.raises(ValueError):
            hill_estimator(samples, k=10)

    def test_tiny_sample_rejected(self):
        with pytest.raises(InsufficientDataError):
            hill_estimator(np.array([1.0]), k=1)

    def test_non_positive_pivot_rejected(self):
        samples = np.array([-1.0, 0.0, 1.0, 2.0])
        with pytest.raises(InsufficientDataError):
            hill_estimator(samples, k=3)

    def test_degenerate_equal_samples_rejected(self):
        with pytest.raises(InsufficientDataError):
            hill_estimator(np.full(100, 7.0), k=10)

    def test_scale_invariant(self, rng):
        """Only ratios to the pivot enter: the units of the rates do not."""
        samples = rng.pareto(1.5, 5_000) + 1.0
        assert hill_estimator(samples * 8e3, k=250) == pytest.approx(
            hill_estimator(samples, k=250)
        )

    def test_order_invariant(self, rng):
        samples = rng.pareto(1.5, 5_000) + 1.0
        shuffled = rng.permutation(samples)
        assert hill_estimator(shuffled, k=250) == pytest.approx(
            hill_estimator(np.sort(samples), k=250)
        )

    def test_known_value(self):
        # top k=2 of [8, 4, 2, 1] over pivot 2: mean(log 4, log 2)
        estimate = hill_estimator(np.array([1.0, 2.0, 4.0, 8.0]), k=2)
        assert estimate == pytest.approx(1.0 / (1.5 * np.log(2.0)))
