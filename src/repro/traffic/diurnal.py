"""Diurnal (time-of-day) load profiles.

The paper's two links behave differently across the day: the west-coast
link "experiences a high burst in its utilization during the working
hours" while the east-coast link "exhibits smoother utilization levels".
A :class:`DiurnalProfile` captures that as a periodic multiplier built
from hourly control points with smooth (cosine) interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError

SECONDS_PER_DAY = 86400.0
SECONDS_PER_HOUR = 3600.0


@dataclass(frozen=True)
class DiurnalProfile:
    """A 24-hour periodic multiplier defined by hourly control points.

    ``hourly[h]`` is the multiplier at hour ``h`` o'clock; values between
    control points are cosine-interpolated for a smooth derivative. The
    multiplier is relative: 1.0 means the link's base level.
    """

    name: str
    hourly: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.hourly) != 24:
            raise WorkloadError(
                f"profile {self.name!r} needs 24 hourly points, "
                f"got {len(self.hourly)}"
            )
        if any(value <= 0 for value in self.hourly):
            raise WorkloadError("profile multipliers must be positive")

    def at(self, seconds_of_day: np.ndarray | float) -> np.ndarray:
        """Evaluate the profile at time-of-day offsets (seconds)."""
        seconds = np.asarray(seconds_of_day, dtype=float) % SECONDS_PER_DAY
        hours = seconds / SECONDS_PER_HOUR
        base = np.floor(hours).astype(int) % 24
        nxt = (base + 1) % 24
        fraction = hours - np.floor(hours)
        # Cosine easing between the two control points.
        blend = (1.0 - np.cos(np.pi * fraction)) / 2.0
        values = np.asarray(self.hourly)
        return values[base] * (1.0 - blend) + values[nxt] * blend

    def peak_to_trough(self) -> float:
        """Ratio between the busiest and quietest control points."""
        return max(self.hourly) / min(self.hourly)


def _working_hours_profile(night: float, morning_ramp: float, peak: float,
                           evening: float, name: str) -> DiurnalProfile:
    """Build a profile shaped like business traffic on a backbone link."""
    hourly = [night] * 24
    for hour in range(6, 9):
        hourly[hour] = night + (morning_ramp - night) * (hour - 5) / 3.0
    for hour in range(9, 18):
        hourly[hour] = peak
    for hour in range(18, 23):
        hourly[hour] = evening
    hourly[23] = night
    return DiurnalProfile(name, tuple(hourly))


#: Bursty profile: strong working-hours hump over a quiet night — the
#: paper's west-coast link.
WEST_COAST_PROFILE = _working_hours_profile(
    night=0.45, morning_ramp=0.9, peak=1.75, evening=0.95,
    name="west-coast-bursty",
)

#: Smooth profile: mild day/night swing — the paper's east-coast link.
EAST_COAST_PROFILE = _working_hours_profile(
    night=0.75, morning_ramp=0.95, peak=1.25, evening=1.0,
    name="east-coast-smooth",
)

#: A completely flat profile, useful for controlled experiments.
FLAT_PROFILE = DiurnalProfile("flat", tuple([1.0] * 24))
