"""Unit tests for the threshold tracker (detect + EWMA + fallback)."""

import numpy as np
import pytest

from repro.errors import (
    ClassificationError,
    CutBelowTableError,
    InsufficientDataError,
    TailNotFoundError,
)
from repro.core.smoothing import ThresholdTracker, ThresholdSeries
from repro.core.thresholds import ConstantLoadThreshold


class FixedDetector:
    """Detector returning scripted values (or raising on None)."""

    name = "scripted"

    def __init__(self, values):
        self._values = list(values)

    def detect(self, rates, background=0.0):
        value = self._values.pop(0)
        if value is None:
            raise TailNotFoundError("scripted failure")
        return value


class FixedFallback:
    name = "fixed-fallback"

    def __init__(self, value):
        self._value = value

    def detect(self, rates, background=0.0):
        return self._value


def slot_rates(num_slots, num_flows=4):
    return np.ones((num_flows, num_slots))


class TestOnlineSemantics:
    def test_slot0_uses_own_raw(self):
        tracker = ThresholdTracker(FixedDetector([10.0]), alpha=0.9)
        first = tracker.observe(np.ones(4))
        assert first.raw == 10.0
        assert first.smoothed == 10.0

    def test_slot1_uses_ewma_of_history(self):
        tracker = ThresholdTracker(FixedDetector([10.0, 20.0, 20.0]),
                                   alpha=0.9)
        tracker.observe(np.ones(4))
        second = tracker.observe(np.ones(4))
        # B̄(1) = 0.9 * 10 + 0.1 * 10 = 10 (only raw(0) known so far).
        assert second.smoothed == pytest.approx(10.0)
        third = tracker.observe(np.ones(4))
        # B̄(2) = 0.9 * 10 + 0.1 * 20 = 11.
        assert third.smoothed == pytest.approx(11.0)

    def test_smoothed_threshold_lags_raw_jump(self):
        values = [10.0] * 5 + [100.0] * 5
        tracker = ThresholdTracker(FixedDetector(values), alpha=0.9)
        results = [tracker.observe(np.ones(4)) for _ in range(10)]
        smoothed = [r.smoothed for r in results]
        # After the jump the smoothed series approaches 100 gradually.
        assert smoothed[5] == pytest.approx(10.0)
        assert smoothed[6] < 30.0
        assert smoothed[-1] < 100.0
        assert smoothed[-1] > smoothed[6]

    def test_alpha_zero_tracks_previous_raw(self):
        tracker = ThresholdTracker(FixedDetector([5.0, 9.0, 13.0]),
                                   alpha=0.0)
        tracker.observe(np.ones(4))
        second = tracker.observe(np.ones(4))
        assert second.smoothed == 5.0
        third = tracker.observe(np.ones(4))
        assert third.smoothed == 9.0


class TestFallbacks:
    def test_failure_uses_previous_raw(self):
        tracker = ThresholdTracker(FixedDetector([10.0, None, 30.0]),
                                   alpha=0.5)
        tracker.observe(np.ones(4))
        second = tracker.observe(np.ones(4))
        assert second.raw == 10.0
        assert second.fallback_used
        assert tracker.fallback_slots == [1]

    def test_failure_on_first_slot_uses_fallback_detector(self):
        tracker = ThresholdTracker(
            FixedDetector([None, 20.0]), alpha=0.5,
            fallback=FixedFallback(7.0),
        )
        first = tracker.observe(np.ones(4))
        assert first.raw == 7.0
        assert first.fallback_used

    def test_insufficient_data_also_falls_back(self):
        class Failing:
            name = "failing"

            def detect(self, rates, background=0.0):
                raise InsufficientDataError("nope")

        tracker = ThresholdTracker(Failing(), alpha=0.5,
                                   fallback=FixedFallback(3.0))
        result = tracker.observe(np.ones(4))
        assert result.raw == 3.0

    def test_bad_threshold_value_rejected(self):
        tracker = ThresholdTracker(FixedDetector([-1.0]), alpha=0.5)
        with pytest.raises(ClassificationError):
            tracker.observe(np.ones(4))


class Scripted:
    """A detector answering from a script: a float is a cut, ``None``
    a failed fit, a tuple ``("below", cut)`` a below-the-table slot.
    It records the background each call was handed."""

    name = "scripted"

    def __init__(self, answers):
        self._answers = list(answers)
        self.backgrounds = []

    def detect(self, rates, background=0.0):
        self.backgrounds.append(background)
        answer = self._answers.pop(0)
        if answer is None:
            raise InsufficientDataError("scripted failure")
        if isinstance(answer, tuple):
            raise CutBelowTableError(answer[1])
        return answer


class TestBelowTheTable:
    """A slot whose cut falls in the untracked bytes is classified by
    the EWMA's threshold (its own tracked-only cut while there is none)
    and never moves the EWMA."""

    def test_background_reaches_the_detector(self):
        detector = Scripted([10.0, 10.0])
        tracker = ThresholdTracker(detector, alpha=0.5)
        tracker.observe(np.ones(4))
        tracker.observe(np.ones(4), background=7.5)
        assert detector.backgrounds == [0.0, 7.5]

    def test_without_history_the_tracked_cut_classifies(self):
        tracker = ThresholdTracker(Scripted([("below", 40.0)]), alpha=0.5)
        first = tracker.observe(np.ones(4), background=100.0)
        assert first.below_table
        assert first.raw == first.smoothed == 40.0
        assert not first.fallback_used
        assert tracker.fallback_slots == []

    def test_with_history_the_ewma_classifies_and_stays(self):
        tracker = ThresholdTracker(
            Scripted([10.0, 20.0, ("below", 500.0), 20.0]), alpha=0.5
        )
        tracker.observe(np.ones(4))
        second = tracker.observe(np.ones(4))
        below = tracker.observe(np.ones(4), background=1.0)
        after = tracker.observe(np.ones(4))
        assert second.smoothed == 10.0
        # B̄ = 0.5 * 10 + 0.5 * 20 = 15 classifies the below slot ...
        assert below.below_table and below.smoothed == 15.0
        assert below.raw == 500.0
        # ... and its 500 never enters: the next slot still sees 15
        assert after.smoothed == 15.0

    def test_a_run_of_below_slots_without_history_uses_each_cut(self):
        tracker = ThresholdTracker(
            Scripted([("below", 40.0), ("below", 60.0), 30.0, 30.0]),
            alpha=0.5,
        )
        cuts = [tracker.observe(np.ones(4), 1.0).smoothed for _ in "ab"]
        assert cuts == [40.0, 60.0]
        # the first real detection bootstraps the EWMA on its own
        assert tracker.observe(np.ones(4)).smoothed == 30.0
        assert tracker.observe(np.ones(4)).smoothed == 30.0

    def test_below_slot_zero_then_all_zero_gap_cell_falls_back(self):
        """Slot 0's cut falls in the residual, then a gap cell carries
        no traffic at all: the gap has no detection of its own and must
        still find a previous threshold — the below slot's cut — rather
        than raise from an empty fallback detection."""
        tracker = ThresholdTracker(ConstantLoadThreshold(0.8), alpha=0.9)
        first = tracker.observe(np.array([30.0, 10.0]), background=200.0)
        assert first.below_table
        gap = tracker.observe(np.zeros(2))
        assert gap.fallback_used
        assert gap.raw == gap.smoothed == first.raw
        assert tracker.fallback_slots == [1]

    def test_bad_tracked_cut_rejected(self):
        tracker = ThresholdTracker(Scripted([("below", 0.0)]))
        with pytest.raises(ClassificationError):
            tracker.observe(np.ones(4), background=1.0)

    def test_fallback_detector_gets_the_background(self):
        fallback = Scripted([3.0])
        tracker = ThresholdTracker(
            Scripted([None]), alpha=0.5, fallback=fallback
        )
        assert tracker.observe(np.ones(4), background=9.0).raw == 3.0
        assert fallback.backgrounds == [9.0]


class TestRunAndSeries:
    def test_run_over_matrix(self):
        rates = np.abs(np.random.default_rng(0).normal(
            1000, 100, size=(50, 6))) + 1.0
        tracker = ThresholdTracker(ConstantLoadThreshold(0.8), alpha=0.9)
        series = tracker.run(rates)
        assert isinstance(series, ThresholdSeries)
        assert series.num_slots == 6
        assert series.scheme == "0.8-constant-load"
        assert np.all(series.raw > 0)
        assert np.all(series.smoothed > 0)
        assert series.fallback_rate == 0.0

    def test_run_rejects_1d(self):
        tracker = ThresholdTracker(ConstantLoadThreshold(0.8))
        with pytest.raises(ClassificationError):
            tracker.run(np.ones(5))

    def test_smoothness_metric(self):
        smooth = ThresholdSeries("s", 0.9, np.ones(10), np.ones(10), ())
        assert smooth.smoothness() == 0.0
        rough = ThresholdSeries(
            "r", 0.0, np.ones(4),
            np.array([1.0, 2.0, 1.0, 2.0]), (),
        )
        assert rough.smoothness() > 0.5

    def test_higher_alpha_is_smoother(self, rng):
        rates = np.abs(rng.normal(1000, 300, size=(80, 40))) + 1.0
        runs = {}
        for alpha in (0.0, 0.9):
            tracker = ThresholdTracker(ConstantLoadThreshold(0.8),
                                       alpha=alpha)
            runs[alpha] = tracker.run(rates).smoothness()
        assert runs[0.9] < runs[0.0]

    def test_bad_alpha_rejected(self):
        with pytest.raises(ClassificationError):
            ThresholdTracker(ConstantLoadThreshold(0.8), alpha=1.0)
