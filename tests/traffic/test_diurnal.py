"""Unit tests for diurnal profiles."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.traffic.diurnal import (
    EAST_COAST_PROFILE,
    FLAT_PROFILE,
    SECONDS_PER_DAY,
    WEST_COAST_PROFILE,
    DiurnalProfile,
)


class TestDiurnalProfile:
    def test_needs_24_points(self):
        with pytest.raises(WorkloadError):
            DiurnalProfile("bad", tuple([1.0] * 23))

    def test_positive_multipliers_enforced(self):
        points = [1.0] * 24
        points[5] = 0.0
        with pytest.raises(WorkloadError):
            DiurnalProfile("bad", tuple(points))

    def test_control_points_hit_exactly(self):
        profile = WEST_COAST_PROFILE
        for hour in range(24):
            value = profile.at(hour * 3600.0)
            assert value == pytest.approx(profile.hourly[hour])

    def test_wraps_across_midnight(self):
        profile = EAST_COAST_PROFILE
        assert profile.at(SECONDS_PER_DAY + 3600.0) == \
            pytest.approx(profile.at(3600.0))

    def test_interpolation_is_between_neighbours(self):
        profile = WEST_COAST_PROFILE
        for hour in range(24):
            mid = profile.at(hour * 3600.0 + 1800.0)
            low = min(profile.hourly[hour], profile.hourly[(hour + 1) % 24])
            high = max(profile.hourly[hour], profile.hourly[(hour + 1) % 24])
            assert low - 1e-9 <= mid <= high + 1e-9

    def test_vectorised_evaluation(self):
        seconds = np.arange(0, SECONDS_PER_DAY, 900.0)
        values = WEST_COAST_PROFILE.at(seconds)
        assert values.shape == seconds.shape
        assert np.all(values > 0)

    def test_flat_profile_is_one(self):
        seconds = np.linspace(0, SECONDS_PER_DAY, 100)
        assert np.allclose(FLAT_PROFILE.at(seconds), 1.0)


class TestPaperProfiles:
    def test_west_is_burstier_than_east(self):
        assert WEST_COAST_PROFILE.peak_to_trough() > \
            EAST_COAST_PROFILE.peak_to_trough()

    def test_working_hours_are_the_peak(self):
        for profile in (WEST_COAST_PROFILE, EAST_COAST_PROFILE):
            noon = profile.at(12 * 3600.0)
            night = profile.at(3 * 3600.0)
            assert noon > night
