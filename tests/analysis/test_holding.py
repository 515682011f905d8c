"""Unit tests for holding-time analysis (Fig. 1(c) machinery)."""

import numpy as np
import pytest

from repro.analysis.holding import (
    FIG1C_MAX_SLOTS,
    HoldingTimeAnalysis,
    busy_period_result,
)
from repro.core.engine import Feature, Scheme


class TestBusyPeriodResult:
    def test_restricts_to_five_hours(self, small_grid):
        result = small_grid[(Scheme.CONSTANT_LOAD, Feature.SINGLE)]
        busy = busy_period_result(result, hours=3.0)
        expected_slots = int(3 * 3600 / result.matrix.axis.slot_seconds)
        assert busy.matrix.num_slots == expected_slots


class TestHoldingTimeAnalysis:
    def test_from_result_full_horizon(self, small_grid):
        result = small_grid[(Scheme.CONSTANT_LOAD, Feature.SINGLE)]
        analysis = HoldingTimeAnalysis.from_result(result, busy_hours=None)
        assert analysis.per_flow_mean_slots.size == \
            result.holding_summary().num_flows_ever_elephant
        assert analysis.mean_minutes > 0

    def test_busy_period_restriction_shrinks_population(self, small_grid):
        result = small_grid[(Scheme.CONSTANT_LOAD, Feature.SINGLE)]
        full = HoldingTimeAnalysis.from_result(result, busy_hours=None)
        busy = HoldingTimeAnalysis.from_result(result, busy_hours=3.0)
        assert busy.per_flow_mean_slots.size <= full.per_flow_mean_slots.size

    def test_histogram_axes(self, small_grid):
        result = small_grid[(Scheme.CONSTANT_LOAD, Feature.LATENT_HEAT)]
        analysis = HoldingTimeAnalysis.from_result(result, busy_hours=3.0)
        histogram = analysis.histogram()
        assert histogram.counts.size == FIG1C_MAX_SLOTS + 1
        assert histogram.total == analysis.per_flow_mean_slots.size

    def test_single_interval_flows_counted(self):
        analysis = HoldingTimeAnalysis(
            label="x", slot_seconds=300.0,
            per_flow_mean_slots=np.array([1.0, 1.0, 2.5, 7.0]),
            summary=None,
        )
        assert analysis.single_interval_flows == 2
        assert analysis.mean_minutes == pytest.approx(
            np.mean([1.0, 1.0, 2.5, 7.0]) * 5.0
        )

    def test_empty_analysis(self):
        analysis = HoldingTimeAnalysis(
            label="x", slot_seconds=300.0,
            per_flow_mean_slots=np.array([]),
            summary=None,
        )
        assert np.isnan(analysis.mean_minutes)
        assert analysis.single_interval_flows == 0


class TestHoldingTimeRatio:
    def test_paper_contrast_on_small_link(self, small_grid):
        """Latent heat must stretch holding times by a clear factor."""
        single = HoldingTimeAnalysis.from_result(
            small_grid[(Scheme.CONSTANT_LOAD, Feature.SINGLE)],
            busy_hours=3.0,
        )
        latent = HoldingTimeAnalysis.from_result(
            small_grid[(Scheme.CONSTANT_LOAD, Feature.LATENT_HEAT)],
            busy_hours=3.0,
        )
        assert latent.mean_minutes / single.mean_minutes > 2.0
