"""Per-slot elephant population metrics (Fig. 1(a) and 1(b))."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.result import ClassificationResult
from repro.errors import ClassificationError


@dataclass(frozen=True)
class ElephantSeries:
    """The two time series the paper plots per link and scheme.

    ``residual_fraction`` is only present for runs produced through a
    bounded aggregation backend: the per-slot share of traffic that
    fell into the sketch's residual ("other traffic") row rather than a
    tracked flow. Exact runs carry ``None``.
    """

    label: str
    hours: np.ndarray
    counts: np.ndarray
    traffic_fraction: np.ndarray
    residual_fraction: np.ndarray | None = None

    @classmethod
    def from_result(cls, result: ClassificationResult) -> "ElephantSeries":
        """Build the series from a batch result (no residual row)."""
        return cls(
            label=result.label,
            hours=result.matrix.axis.hours_since_start(),
            counts=result.elephants_per_slot().astype(float),
            traffic_fraction=result.traffic_fraction_per_slot(),
        )

    @property
    def mean_count(self) -> float:
        """Average number of elephants across the horizon."""
        return float(self.counts.mean())

    @property
    def mean_fraction(self) -> float:
        """Average fraction of traffic apportioned to elephants."""
        return float(self.traffic_fraction.mean())

    @property
    def mean_residual_fraction(self) -> float:
        """Average share of traffic left untracked (0.0 for exact runs)."""
        if self.residual_fraction is None:
            return 0.0
        return float(self.residual_fraction.mean())

    def fraction_stability(self) -> float:
        """Coefficient of variation of the traffic fraction.

        The paper notes the fraction series "exhibits less fluctuation"
        than the count series; compare with :meth:`count_variability`.
        """
        mean = self.traffic_fraction.mean()
        if mean == 0:
            return 0.0
        return float(self.traffic_fraction.std() / mean)

    def count_variability(self) -> float:
        """Coefficient of variation of the count series."""
        mean = self.counts.mean()
        if mean == 0:
            return 0.0
        return float(self.counts.std() / mean)


@dataclass
class ElephantSeriesBuilder:
    """Accumulate an :class:`ElephantSeries` one slot at a time.

    The streaming pipeline cannot call :meth:`ElephantSeries.from_result`
    — there is no result object until the stream ends, and a pure
    streaming run never builds one. The builder keeps just the two
    per-slot scalars the series needs, so its state is O(slots seen),
    independent of the flow population.
    """

    label: str
    slot_seconds: float
    _counts: list[int] = field(default_factory=list)
    _fractions: list[float] = field(default_factory=list)
    _residuals: list[float] = field(default_factory=list)
    _saw_residual: bool = False

    def add_slot(
        self,
        rates: np.ndarray,
        elephant_mask: np.ndarray,
        residual_row: int | None = None,
    ) -> None:
        """Account one classified slot (call in slot order).

        ``residual_row`` marks the untracked-traffic row of a bounded
        backend's frame: its bandwidth stays in the totals (it is real
        link traffic) but is recorded separately so coverage is
        observable.
        """
        if rates.shape != elephant_mask.shape:
            raise ClassificationError(
                f"rates shape {rates.shape} != mask shape "
                f"{elephant_mask.shape}"
            )
        total = float(rates.sum())
        elephant_traffic = float(rates[elephant_mask].sum())
        self._counts.append(int(elephant_mask.sum()))
        self._fractions.append(elephant_traffic / total if total > 0 else 0.0)
        residual = 0.0
        if residual_row is not None and residual_row < rates.size:
            self._saw_residual = True
            residual = float(rates[residual_row]) / total if total > 0 else 0.0
        self._residuals.append(residual)

    @property
    def slots_seen(self) -> int:
        """Slots accumulated so far."""
        return len(self._counts)

    def build(self) -> ElephantSeries:
        """The series over every slot added so far."""
        if not self._counts:
            raise ClassificationError("no slots added to the series")
        hours = np.arange(len(self._counts)) * self.slot_seconds / 3600.0
        return ElephantSeries(
            label=self.label,
            hours=hours,
            counts=np.array(self._counts, dtype=float),
            traffic_fraction=np.array(self._fractions),
            residual_fraction=(
                np.array(self._residuals) if self._saw_residual else None
            ),
        )


def working_hours_mask(
    hours: np.ndarray,
    start_hour_of_day: float,
    work_start: float = 9.0,
    work_end: float = 18.0,
) -> np.ndarray:
    """Boolean mask of slots falling inside working hours.

    ``hours`` are offsets since the trace start; ``start_hour_of_day``
    anchors them to the wall clock (9.0 for the paper's traces).
    """
    clock = (hours + start_hour_of_day) % 24.0
    return (clock >= work_start) & (clock < work_end)


def working_hours_lift(
    series: ElephantSeries, start_hour_of_day: float = 9.0
) -> float:
    """Ratio of mean elephants during working hours vs outside them.

    Quantifies the Fig. 1(a) observation that the west-coast link's
    elephant count bursts during the working day.
    """
    mask = working_hours_mask(series.hours, start_hour_of_day)
    if mask.all() or not mask.any():
        return 1.0
    inside = series.counts[mask].mean()
    outside = series.counts[~mask].mean()
    if outside == 0:
        return float("inf")
    return float(inside / outside)
