"""Unit tests for threshold detectors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import (
    CutBelowTableError,
    InsufficientDataError,
    TailNotFoundError,
)
from repro.core.thresholds import (
    AestThreshold,
    ConstantLoadThreshold,
    QuantileThreshold,
    positive_rates,
)

rate_vectors = arrays(
    float, st.integers(min_value=3, max_value=300),
    elements=st.floats(min_value=0.0, max_value=1e8, allow_nan=False),
)


class TestPositiveRates:
    def test_filters_zeros(self):
        assert positive_rates(np.array([0.0, 1.0, 0.0, 2.0])).tolist() == \
            [1.0, 2.0]


class TestConstantLoad:
    def test_exact_partition(self):
        # Rates 50, 30, 20: top-1 has 50 %, top-2 has 80 %.
        rates = np.array([50.0, 30.0, 20.0])
        threshold = ConstantLoadThreshold(beta=0.8).detect(rates)
        # Threshold must separate {50, 30} (elephants) from {20}.
        assert 20.0 < threshold < 30.0
        assert (rates > threshold).sum() == 2

    def test_all_flows_needed(self):
        rates = np.array([10.0, 10.0, 10.0])
        threshold = ConstantLoadThreshold(beta=0.99).detect(rates)
        assert (rates > threshold).sum() == 3
        assert threshold > 0

    def test_single_dominant_flow(self):
        rates = np.array([1000.0, 1.0, 1.0])
        threshold = ConstantLoadThreshold(beta=0.8).detect(rates)
        assert (rates > threshold).sum() == 1

    def test_zeros_ignored(self):
        rates = np.array([0.0, 50.0, 30.0, 20.0, 0.0])
        with_zeros = ConstantLoadThreshold(beta=0.8).detect(rates)
        without = ConstantLoadThreshold(beta=0.8).detect(rates[rates > 0])
        assert with_zeros == without

    def test_empty_slot_rejected(self):
        with pytest.raises(InsufficientDataError):
            ConstantLoadThreshold(beta=0.8).detect(np.zeros(5))

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.5, 2.0])
    def test_bad_beta_rejected(self, beta):
        with pytest.raises(ValueError):
            ConstantLoadThreshold(beta=beta)

    def test_name(self):
        assert ConstantLoadThreshold(beta=0.8).name == "0.8-constant-load"

    @settings(max_examples=60, deadline=None)
    @given(rates=rate_vectors, beta=st.sampled_from([0.5, 0.8, 0.95]))
    def test_flows_above_cover_at_least_beta(self, rates, beta):
        """The defining property: flows exceeding the threshold carry
        at least the target share, and they are the minimal such set."""
        if not np.any(rates > 0):
            return
        detector = ConstantLoadThreshold(beta=beta)
        threshold = detector.detect(rates)
        elephants = rates[rates > threshold]
        total = rates.sum()
        if elephants.size:
            assert elephants.sum() / total >= beta - 1e-9 or (
                # Ties at the threshold may push the strict set below
                # beta; the tied flows make up the difference.
                np.isclose(rates, threshold).any()
            )


class TestConstantLoadBackground:
    """The residual's bytes count in the slot's traffic."""

    @settings(max_examples=60, deadline=None)
    @given(rates=rate_vectors, beta=st.sampled_from([0.5, 0.8, 0.95]))
    def test_no_background_is_the_plain_cut(self, rates, beta):
        if not np.any(rates > 0):
            return
        detector = ConstantLoadThreshold(beta=beta)
        assert detector.detect(rates, 0.0) == detector.detect(rates)

    def test_background_enlarges_the_top_set(self):
        rates = np.array([50.0, 30.0, 20.0])
        detector = ConstantLoadThreshold(beta=0.8)
        # 0.8 of 100 is the top two; 0.8 of 110 needs all three
        assert (rates > detector.detect(rates)).sum() == 2
        threshold = detector.detect(rates, background=10.0)
        assert (rates > threshold).sum() == 3
        assert threshold == 10.0  # midway to an empty next flow

    def test_below_the_table_carries_the_tracked_cut(self):
        rates = np.array([50.0, 30.0, 20.0])
        detector = ConstantLoadThreshold(beta=0.8)
        with pytest.raises(CutBelowTableError) as raised:
            detector.detect(rates, background=40.0)
        assert raised.value.tracked_cut == detector.detect(rates)

    def test_flows_carrying_exactly_beta_are_below_the_table(self):
        """β · (tracked + residual) = tracked: the cut would have to
        take every tracked flow, with nothing named below it."""
        detector = ConstantLoadThreshold(beta=0.8)
        with pytest.raises(CutBelowTableError):
            detector.detect(np.array([3.0, 1.0]), background=1.0)

    def test_empty_slot_with_background_is_still_insufficient(self):
        with pytest.raises(InsufficientDataError):
            ConstantLoadThreshold(beta=0.8).detect(np.zeros(3), 50.0)


class TestQuantileThreshold:
    def test_background_counts_below_every_flow(self):
        rates = np.array([2.0, 8.0])
        detector = QuantileThreshold(quantile=0.5)
        assert detector.detect(rates) == 8.0
        # 10 untracked bytes sit below both: half of 20 is reached at 2
        assert detector.detect(rates, background=10.0) == 2.0

    def test_byte_weighted_quantile(self):
        rates = np.array([1.0, 1.0, 8.0])
        # 20 % of bytes lie below the 8.0 flow, so quantile 0.2 → 1.0.
        threshold = QuantileThreshold(quantile=0.2).detect(rates)
        assert threshold == pytest.approx(1.0)

    def test_always_succeeds_on_positive_input(self, rng):
        rates = rng.uniform(0.1, 10, 50)
        threshold = QuantileThreshold(quantile=0.3).detect(rates)
        assert 0.1 <= threshold <= 10

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            QuantileThreshold().detect(np.zeros(3))

    @pytest.mark.parametrize("quantile", [0.0, 1.0])
    def test_bad_quantile_rejected(self, quantile):
        with pytest.raises(ValueError):
            QuantileThreshold(quantile=quantile)


class TestAestThreshold:
    def test_finds_tail_onset_on_heavy_slot(self, rng):
        rates = (rng.pareto(1.1, 5000) + 1.0) * 1e4
        detector = AestThreshold()
        threshold = detector.detect(rates)
        above = (rates > threshold).sum()
        # The threshold isolates a minority of flows that carry a
        # disproportionate share of bytes.
        assert 0 < above < rates.size / 3
        share = rates[rates > threshold].sum() / rates.sum()
        assert share > above / rates.size

    def test_raises_on_light_tail(self, rng):
        rates = rng.exponential(1e4, 5000)
        with pytest.raises(TailNotFoundError):
            AestThreshold().detect(rates)

    def test_name(self):
        assert AestThreshold().name == "aest"

    def test_background_is_accepted_and_unused(self, rng):
        rates = (rng.pareto(1.1, 5000) + 1.0) * 1e4
        detector = AestThreshold()
        assert detector.detect(rates, 1e12) == detector.detect(rates)
