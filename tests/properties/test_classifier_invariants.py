"""Property-based tests of cross-cutting classifier invariants.

These run the full detect→smooth→classify pipeline on randomly
generated rate matrices (heavy-tailed rows, random activity patterns)
and assert invariants that must hold for *any* input, not just the
calibrated scenarios.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.latent_heat import LatentHeatClassifier, latent_heat_series
from repro.core.single_feature import SingleFeatureClassifier
from repro.core.smoothing import ThresholdTracker
from repro.core.thresholds import ConstantLoadThreshold, QuantileThreshold
from repro.core.states import run_lengths, transition_counts
from repro.flows.matrix import RateMatrix
from repro.flows.records import TimeAxis
from repro.net.prefix import Prefix


@st.composite
def rate_matrices(draw):
    """Random small rate matrices with heavy-tailed positive rates."""
    num_flows = draw(st.integers(min_value=5, max_value=40))
    num_slots = draw(st.integers(min_value=3, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31))
    rng = np.random.default_rng(seed)
    rates = (rng.pareto(1.2, size=(num_flows, num_slots)) + 1.0) * 1e4
    # Random inactivity: some flow-slots are silent.
    rates[rng.random(rates.shape) < 0.25] = 0.0
    # Ensure every slot has at least one active flow.
    for t in range(num_slots):
        if not (rates[:, t] > 0).any():
            rates[rng.integers(0, num_flows), t] = 1e4
    prefixes = [Prefix.from_host((10 << 24) | (i << 8), 24)
                for i in range(num_flows)]
    return RateMatrix(prefixes, TimeAxis(0.0, 300.0, num_slots), rates)


@settings(max_examples=25, deadline=None)
@given(matrix=rate_matrices())
def test_single_feature_mask_is_threshold_cut(matrix):
    """The mask must be exactly {x > smoothed threshold}, slotwise."""
    result = SingleFeatureClassifier(
        ConstantLoadThreshold(0.8)).classify(matrix)
    expected = matrix.rates > result.thresholds.smoothed[None, :]
    assert np.array_equal(result.elephant_mask, expected)


@settings(max_examples=25, deadline=None)
@given(matrix=rate_matrices())
def test_inactive_flow_is_never_single_feature_elephant(matrix):
    result = SingleFeatureClassifier(
        ConstantLoadThreshold(0.8)).classify(matrix)
    assert not result.elephant_mask[matrix.rates == 0.0].any()


@settings(max_examples=25, deadline=None)
@given(matrix=rate_matrices(), window=st.integers(min_value=1, max_value=15))
def test_latent_heat_equals_windowed_deviation_sum(matrix, window):
    """Definitional check against a naive O(n·w) reference."""
    tracker = ThresholdTracker(ConstantLoadThreshold(0.8))
    thresholds = tracker.run(matrix.rates)
    heat = latent_heat_series(matrix.rates, thresholds.smoothed, window)
    deviations = matrix.rates - thresholds.smoothed[None, :]
    for t in range(matrix.num_slots):
        low = max(0, t - window + 1)
        expected = deviations[:, low:t + 1].sum(axis=1)
        assert np.allclose(heat[:, t], expected)


@settings(max_examples=20, deadline=None)
@given(matrix=rate_matrices())
def test_latent_heat_window_one_equals_single_feature_on_ties_free_input(
        matrix):
    """With window=1, latent heat > 0 iff x > threshold (no rate ever
    exactly equals the threshold for these continuous inputs)."""
    single = SingleFeatureClassifier(
        ConstantLoadThreshold(0.8)).classify(matrix)
    latent = LatentHeatClassifier(
        ConstantLoadThreshold(0.8), window=1).classify(matrix)
    assert np.array_equal(single.elephant_mask, latent.elephant_mask)


@settings(max_examples=20, deadline=None)
@given(matrix=rate_matrices())
def test_smoothed_thresholds_bounded_by_raw_range(matrix):
    """EWMA output lives inside the convex hull of raw detections."""
    tracker = ThresholdTracker(ConstantLoadThreshold(0.8))
    series = tracker.run(matrix.rates)
    assert series.smoothed.min() >= series.raw.min() - 1e-9
    assert series.smoothed.max() <= series.raw.max() + 1e-9


@settings(max_examples=20, deadline=None)
@given(matrix=rate_matrices())
def test_quantile_fallback_never_fails(matrix):
    """The fallback detector must succeed on every slot that has any
    active flow (which rate_matrices guarantees)."""
    detector = QuantileThreshold(quantile=0.2)
    for _, rates in matrix.iter_slots():
        threshold = detector.detect(rates)
        assert threshold > 0


@settings(max_examples=20, deadline=None)
@given(matrix=rate_matrices())
def test_transitions_consistent_with_runs(matrix):
    """Cross-check two independent state-series computations: a flow
    with R elephant runs inside the horizon has between 2R-2 and 2R
    transitions."""
    result = SingleFeatureClassifier(
        ConstantLoadThreshold(0.8)).classify(matrix)
    transitions = transition_counts(result.elephant_mask)
    for row in range(matrix.num_flows):
        runs = run_lengths(result.elephant_mask[row])
        if runs.size == 0:
            assert transitions[row] == 0
        else:
            assert 2 * runs.size - 2 <= transitions[row] <= 2 * runs.size


@settings(max_examples=15, deadline=None)
@given(matrix=rate_matrices(), beta=st.sampled_from([0.5, 0.7, 0.9]))
def test_constant_load_slot_zero_covers_beta(matrix, beta):
    """Slot 0 is classified with its own raw threshold, so its elephant
    set must carry at least beta of slot-0 traffic."""
    result = SingleFeatureClassifier(
        ConstantLoadThreshold(beta)).classify(matrix)
    rates = matrix.slot_rates(0)
    covered = rates[result.elephant_mask[:, 0]].sum()
    assert covered >= beta * rates.sum() - 1e-9
