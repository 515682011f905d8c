"""Unit tests for per-slot elephant metrics."""

import numpy as np
import pytest

from repro.analysis.elephants import (
    ElephantSeries,
    ElephantSeriesBuilder,
    working_hours_lift,
    working_hours_mask,
)
from repro.core.engine import Feature, Scheme
from repro.errors import ClassificationError


class TestElephantSeries:
    def test_from_result(self, small_grid):
        result = small_grid[(Scheme.CONSTANT_LOAD, Feature.LATENT_HEAT)]
        series = ElephantSeries.from_result(result)
        assert series.counts.size == result.matrix.num_slots
        assert series.hours[0] == 0.0
        assert series.mean_count == pytest.approx(
            result.elephants_per_slot().mean()
        )
        assert 0.0 < series.mean_fraction < 1.0
        # a batch result has no residual row
        assert series.residual_fraction is None
        assert series.mean_residual_fraction == 0.0

    def test_fraction_is_less_variable_than_counts(self, tiny_paper_run):
        """The paper's Fig 1(b) observation, which needs a horizon with
        real diurnal range to be meaningful."""
        for link in ("west-coast", "east-coast"):
            result = tiny_paper_run.result(
                link, Scheme.CONSTANT_LOAD, Feature.LATENT_HEAT
            )
            series = ElephantSeries.from_result(result)
            assert series.fraction_stability() < series.count_variability()

    def test_zero_series_edge_cases(self):
        series = ElephantSeries(
            label="empty",
            hours=np.arange(3, dtype=float),
            counts=np.zeros(3),
            traffic_fraction=np.zeros(3),
        )
        assert series.fraction_stability() == 0.0
        assert series.count_variability() == 0.0


class TestElephantSeriesBuilder:
    def test_incremental_equals_from_result(self, small_grid):
        result = small_grid[(Scheme.CONSTANT_LOAD, Feature.LATENT_HEAT)]
        batch = ElephantSeries.from_result(result)
        builder = ElephantSeriesBuilder(
            label=result.label,
            slot_seconds=result.matrix.axis.slot_seconds,
        )
        for slot in range(result.matrix.num_slots):
            builder.add_slot(
                result.matrix.rates[:, slot], result.elephant_mask[:, slot]
            )
        series = builder.build()
        assert series.label == batch.label
        assert np.array_equal(series.counts, batch.counts)
        assert np.allclose(series.traffic_fraction, batch.traffic_fraction)
        assert np.allclose(series.hours, batch.hours)

    def test_zero_traffic_slot_fraction(self):
        builder = ElephantSeriesBuilder(label="x", slot_seconds=300.0)
        builder.add_slot(np.zeros(3), np.zeros(3, dtype=bool))
        builder.add_slot(
            np.array([1.0, 3.0, 0.0]), np.array([False, True, False])
        )
        series = builder.build()
        assert series.traffic_fraction[0] == 0.0
        assert series.traffic_fraction[1] == pytest.approx(0.75)
        assert builder.slots_seen == 2

    def test_residual_row_records_coverage(self):
        """A bounded backend's residual row stays in the totals and its
        share of each slot is the coverage series."""
        builder = ElephantSeriesBuilder(label="x", slot_seconds=300.0)
        builder.add_slot(
            np.array([1.0, 6.0, 1.0]),
            np.array([False, True, False]),
            residual_row=0,
        )
        builder.add_slot(
            np.array([0.0, 2.0, 2.0]),
            np.array([False, True, True]),
            residual_row=0,
        )
        series = builder.build()
        assert series.residual_fraction.tolist() == [0.125, 0.0]
        assert series.mean_residual_fraction == pytest.approx(0.0625)
        assert series.traffic_fraction.tolist() == [0.75, 1.0]

    def test_shape_mismatch_rejected(self):
        builder = ElephantSeriesBuilder(label="x", slot_seconds=300.0)
        with pytest.raises(ClassificationError):
            builder.add_slot(np.zeros(3), np.zeros(4, dtype=bool))

    def test_empty_build_rejected(self):
        with pytest.raises(ClassificationError):
            ElephantSeriesBuilder(label="x", slot_seconds=300.0).build()


class TestWorkingHours:
    def test_mask_anchored_to_clock(self):
        hours = np.array([0.0, 3.0, 12.0, 23.0, 24.0])
        # Trace starts at 09:00: offsets map to 09:00, 12:00, 21:00,
        # 08:00 (next day), 09:00 (next day).
        mask = working_hours_mask(hours, start_hour_of_day=9.0)
        assert mask.tolist() == [True, True, False, False, True]

    def test_lift_quantifies_daytime_hump(self):
        hours = np.arange(24, dtype=float)
        counts = np.where(working_hours_mask(hours, 9.0), 100.0, 50.0)
        series = ElephantSeries(
            label="x",
            hours=hours,
            counts=counts,
            traffic_fraction=np.full(24, 0.5),
        )
        assert working_hours_lift(series, 9.0) == pytest.approx(2.0)

    def test_lift_degenerate_masks(self):
        hours = np.array([0.0, 1.0])  # all inside working hours
        series = ElephantSeries(
            label="x",
            hours=hours,
            counts=np.array([1.0, 2.0]),
            traffic_fraction=np.array([0.5, 0.5]),
        )
        assert working_hours_lift(series, 9.0) == 1.0

    def test_lift_with_no_elephant_outside_working_hours_is_infinite(self):
        hours = np.arange(24, dtype=float)
        counts = np.where(working_hours_mask(hours, 9.0), 4.0, 0.0)
        series = ElephantSeries(
            label="x",
            hours=hours,
            counts=counts,
            traffic_fraction=np.full(24, 0.5),
        )
        assert working_hours_lift(series, 9.0) == float("inf")

    def test_west_lift_exceeds_east_lift(self, tiny_paper_run):
        """Fig 1(a): the west-coast elephant count bursts during the
        working day more than the east-coast one."""
        from repro.analysis.elephants import ElephantSeries as Series

        lifts = {}
        for link in ("west-coast", "east-coast"):
            result = tiny_paper_run.result(
                link, Scheme.CONSTANT_LOAD, Feature.LATENT_HEAT
            )
            lifts[link] = working_hours_lift(Series.from_result(result))
        assert lifts["west-coast"] > lifts["east-coast"]
