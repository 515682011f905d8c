"""Holding-time analysis (Fig. 1(c) and the in-text volatility claims).

All statistics are computed over the busy period, as in the paper, via
:func:`busy_period_result`; the histogram is per-flow *average* holding
time in 5-minute slots, log-counted, exactly Fig. 1(c)'s axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.busy import DEFAULT_BUSY_HOURS, find_busy_period
from repro.core.result import ClassificationResult
from repro.core.states import HoldingTimeSummary, mean_holding_times
from repro.stats.histogram import Histogram, integer_histogram

#: Fig. 1(c) x-axis bound (average holding time in 5-minute slots).
FIG1C_MAX_SLOTS = 60


def busy_period_result(result: ClassificationResult,
                       hours: float = DEFAULT_BUSY_HOURS
                       ) -> ClassificationResult:
    """Restrict a classification result to the link's busy period."""
    busy = find_busy_period(result.matrix, hours=hours)
    return result.restrict_slots(busy.first_slot, busy.num_slots)


@dataclass(frozen=True)
class HoldingTimeAnalysis:
    """Holding-time view of one classification run."""

    label: str
    slot_seconds: float
    per_flow_mean_slots: np.ndarray
    summary: HoldingTimeSummary

    @classmethod
    def from_result(cls, result: ClassificationResult,
                    busy_hours: float | None = DEFAULT_BUSY_HOURS
                    ) -> "HoldingTimeAnalysis":
        """Analyse ``result``, optionally restricted to the busy period.

        Pass ``busy_hours=None`` to analyse the full horizon.
        """
        scoped = result
        if busy_hours is not None:
            scoped = busy_period_result(result, hours=busy_hours)
        per_flow = mean_holding_times(scoped.elephant_mask)
        return cls(
            label=result.label,
            slot_seconds=result.matrix.axis.slot_seconds,
            per_flow_mean_slots=per_flow[~np.isnan(per_flow)],
            summary=HoldingTimeSummary.from_mask(scoped.elephant_mask),
        )

    def histogram(self, max_slots: int = FIG1C_MAX_SLOTS) -> Histogram:
        """The Fig. 1(c) histogram (integer slot bins up to ``max_slots``)."""
        return integer_histogram(self.per_flow_mean_slots,
                                 max_value=max_slots)

    @property
    def mean_minutes(self) -> float:
        """Population mean holding time in minutes."""
        if self.per_flow_mean_slots.size == 0:
            return float("nan")
        return float(self.per_flow_mean_slots.mean()
                     * self.slot_seconds / 60.0)

    @property
    def single_interval_flows(self) -> int:
        """Flows whose average elephant episode lasted exactly one slot."""
        return int((self.per_flow_mean_slots == 1.0).sum())
