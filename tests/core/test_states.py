"""Unit and property tests for the two-state process machinery."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ClassificationError
from repro.core.states import (
    HoldingTimeSummary,
    mean_holding_times,
    run_lengths,
    transition_counts,
)

bool_series = arrays(bool, st.integers(min_value=0, max_value=60))
bool_masks = arrays(
    bool,
    st.tuples(st.integers(min_value=1, max_value=20),
              st.integers(min_value=1, max_value=40)),
)


class TestRunLengths:
    def test_examples(self):
        assert run_lengths(np.array([1, 1, 0, 1], bool)).tolist() == [2, 1]
        assert run_lengths(np.array([0, 0, 0], bool)).tolist() == []
        assert run_lengths(np.array([1, 1, 1], bool)).tolist() == [3]
        assert run_lengths(np.array([], bool)).tolist() == []

    def test_alternating(self):
        states = np.array([1, 0, 1, 0, 1], bool)
        assert run_lengths(states).tolist() == [1, 1, 1]

    def test_rejects_2d(self):
        with pytest.raises(ClassificationError):
            run_lengths(np.zeros((2, 2), bool))

    @given(bool_series)
    def test_sum_of_runs_is_total_true(self, states):
        assert run_lengths(states).sum() == states.sum()

    @given(bool_series)
    def test_number_of_runs_matches_rising_edges(self, states):
        padded = np.concatenate(([False], states))
        rising = int((np.diff(padded.astype(int)) == 1).sum())
        assert run_lengths(states).size == rising


class TestMeanHoldingTimes:
    def test_basic(self):
        mask = np.array([
            [1, 1, 0, 1],   # runs 2, 1 -> mean 1.5
            [0, 0, 0, 0],   # never elephant -> NaN
            [1, 1, 1, 1],   # run 4 -> mean 4
        ], bool)
        holding = mean_holding_times(mask)
        assert holding[0] == pytest.approx(1.5)
        assert np.isnan(holding[1])
        assert holding[2] == pytest.approx(4.0)

    def test_rejects_1d(self):
        with pytest.raises(ClassificationError):
            mean_holding_times(np.zeros(3, bool))

    @given(bool_masks)
    def test_bounds(self, mask):
        holding = mean_holding_times(mask)
        valid = holding[~np.isnan(holding)]
        assert np.all(valid >= 1.0)
        assert np.all(valid <= mask.shape[1])


class TestCounts:
    def test_transitions(self):
        mask = np.array([
            [1, 0, 1, 0],  # 3 flips
            [1, 1, 1, 1],  # 0 flips
            [0, 1, 1, 0],  # 2 flips
        ], bool)
        assert transition_counts(mask).tolist() == [3, 0, 2]

    def test_transitions_reject_1d(self):
        with pytest.raises(ClassificationError):
            transition_counts(np.array([True, False, True]))

    def test_single_slot_no_transitions(self):
        assert transition_counts(np.ones((3, 1), bool)).tolist() == [0, 0, 0]

    @given(bool_masks)
    def test_transitions_bounded_by_slots(self, mask):
        assert np.all(transition_counts(mask) <= mask.shape[1] - 1)


class TestHoldingTimeSummary:
    def test_from_mask(self):
        mask = np.array([
            [1, 0, 0, 0],   # mean 1 -> single-slot flow
            [1, 1, 1, 1],   # mean 4
            [0, 0, 0, 0],
        ], bool)
        summary = HoldingTimeSummary.from_mask(mask)
        assert summary.num_flows_ever_elephant == 2
        assert summary.single_slot_flows == 1
        assert summary.mean_holding_slots == pytest.approx(2.5)
        assert summary.max_holding_slots == 4.0

    def test_empty_mask(self):
        summary = HoldingTimeSummary.from_mask(np.zeros((3, 4), bool))
        assert summary.num_flows_ever_elephant == 0
        assert summary.single_slot_flows == 0
        assert np.isnan(summary.mean_holding_slots)

    def test_minutes_conversion(self):
        mask = np.array([[1, 1, 1, 1]], bool)
        summary = HoldingTimeSummary.from_mask(mask)
        assert summary.mean_holding_minutes(300.0) == pytest.approx(20.0)
