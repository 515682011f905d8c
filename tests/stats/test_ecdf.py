"""Unit and property tests for ECDF/CCDF/LLCD and the share curve."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import InsufficientDataError
from repro.stats.ecdf import ShareCurve, ccdf, ecdf, llcd_points, quantile

positive_samples = arrays(
    float, st.integers(min_value=2, max_value=200),
    elements=st.floats(min_value=0.001, max_value=1e9,
                       allow_nan=False, allow_infinity=False),
)


class TestEcdf:
    def test_simple(self):
        x, f = ecdf(np.array([1.0, 2.0, 2.0, 4.0]))
        assert x.tolist() == [1.0, 2.0, 4.0]
        assert f.tolist() == [0.25, 0.75, 1.0]

    def test_single_sample(self):
        x, f = ecdf(np.array([5.0]))
        assert x.tolist() == [5.0] and f.tolist() == [1.0]

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            ecdf(np.array([]))

    @given(positive_samples)
    def test_monotone_and_bounded(self, samples):
        x, f = ecdf(samples)
        assert np.all(np.diff(x) > 0)
        assert np.all(np.diff(f) > 0)
        assert f[-1] == pytest.approx(1.0)
        assert f[0] > 0


class TestCcdf:
    def test_complements_ecdf(self):
        samples = np.array([1.0, 2.0, 3.0])
        x, tail = ccdf(samples)
        _, f = ecdf(samples)
        assert np.allclose(tail + f, 1.0)

    def test_max_has_zero_tail(self):
        _, tail = ccdf(np.array([1.0, 5.0]))
        assert tail[-1] == 0.0


class TestLlcd:
    def test_drops_zero_probability_point(self):
        log_x, log_p = llcd_points(np.array([1.0, 10.0, 100.0]))
        assert log_x.size == 2  # the maximum is dropped
        assert np.all(log_p < 0)

    def test_rejects_non_positive(self):
        with pytest.raises(InsufficientDataError):
            llcd_points(np.array([0.0, 1.0, 2.0]))

    def test_rejects_tiny_input(self):
        with pytest.raises(InsufficientDataError):
            llcd_points(np.array([1.0]))

    def test_pure_pareto_is_linear(self, rng):
        alpha = 1.3
        samples = (rng.pareto(alpha, 40_000) + 1.0)
        log_x, log_p = llcd_points(samples)
        # Fit the middle of the curve; slope must be ~ -alpha.
        keep = (log_p < -0.5) & (log_p > -3.0)
        slope = np.polyfit(log_x[keep], log_p[keep], 1)[0]
        assert slope == pytest.approx(-alpha, abs=0.1)

    @given(positive_samples)
    def test_decreasing_probability(self, samples):
        try:
            log_x, log_p = llcd_points(samples)
        except InsufficientDataError:
            return  # all samples equal: collapses to one point
        assert np.all(np.diff(log_x) > 0)
        assert np.all(np.diff(log_p) < 0)


class TestQuantile:
    def test_median(self):
        assert quantile(np.array([1.0, 2.0, 3.0]), 0.5) == 2.0

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            quantile(np.array([1.0]), 1.5)

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            quantile(np.array([]), 0.5)


class TestShareCurve:
    def test_basic_shares(self):
        curve = ShareCurve.from_rates(np.array([60.0, 30.0, 10.0]))
        assert curve.flows_for_share(0.6) == 1
        assert curve.flows_for_share(0.61) == 2
        assert curve.flows_for_share(1.0) == 3
        assert curve.share_of_top(1) == pytest.approx(0.6)
        assert curve.share_of_top(0) == 0.0
        assert curve.share_of_top(99) == pytest.approx(1.0)

    def test_ignores_zero_rates(self):
        curve = ShareCurve.from_rates(np.array([5.0, 0.0, 5.0]))
        assert curve.rates_desc.size == 2

    def test_all_zero_rejected(self):
        with pytest.raises(InsufficientDataError):
            ShareCurve.from_rates(np.zeros(4))

    def test_negative_rates_ignored(self):
        curve = ShareCurve.from_rates(np.array([3.0, -2.0, 1.0]))
        assert curve.rates_desc.tolist() == [3.0, 1.0]

    def test_integer_list_accepted(self):
        curve = ShareCurve.from_rates([1, 3])
        assert curve.cumulative_share.tolist() == [0.75, 1.0]

    def test_uniform_mass(self):
        curve = ShareCurve.from_rates(np.ones(100))
        assert curve.share_of_top(10) == pytest.approx(0.10)
        assert curve.flows_for_share(0.5) == 50

    def test_concentrated_mass(self):
        curve = ShareCurve.from_rates(np.array([97.0] + [1.0] * 3))
        assert curve.share_of_top(1) == pytest.approx(0.97)
        assert curve.flows_for_share(0.97) == 1

    def test_few_flows_carry_most_bytes_on_pareto(self, rng):
        # The motivating fact: few flows carry most of the bytes.
        curve = ShareCurve.from_rates(rng.pareto(1.1, 10_000) + 1.0)
        assert curve.share_of_top(1_000) > 0.5
        assert curve.flows_for_share(0.5) < 1_000

    def test_negative_count_is_zero(self):
        curve = ShareCurve.from_rates(np.array([2.0, 1.0]))
        assert curve.share_of_top(-3) == 0.0

    def test_share_bounds_validated(self):
        curve = ShareCurve.from_rates(np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            curve.flows_for_share(0.0)
        with pytest.raises(ValueError):
            curve.flows_for_share(1.5)
        with pytest.raises(ValueError):
            curve.flows_for_share(float("nan"))

    @given(positive_samples)
    def test_flows_for_share_is_minimal(self, samples):
        curve = ShareCurve.from_rates(samples)
        k = curve.flows_for_share(0.8)
        assert curve.share_of_top(k) >= 0.8 - 1e-12
        if k > 1:
            assert curve.share_of_top(k - 1) < 0.8

    @given(positive_samples)
    def test_cumulative_share_monotone(self, samples):
        curve = ShareCurve.from_rates(samples)
        assert np.all(np.diff(curve.cumulative_share) >= -1e-12)
        assert curve.cumulative_share[-1] == pytest.approx(1.0)
