"""The induced two-state process and its run statistics.

The classification scheme "induces the following underlying two-state
process on each flow": elephant when above the threshold, mouse when
below. Holding times — the lengths of maximal elephant runs — are the
paper's volatility measure; Fig. 1(c) histograms the per-flow *average*
holding time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ClassificationError


def run_lengths(states: np.ndarray) -> np.ndarray:
    """Lengths of maximal ``True`` runs in a 1-D boolean series.

    ``run_lengths([T, T, F, T]) == [2, 1]``; an all-``False`` series
    yields an empty array.
    """
    states = np.asarray(states, dtype=bool)
    if states.ndim != 1:
        raise ClassificationError("run_lengths expects a 1-D series")
    if states.size == 0:
        return np.empty(0, dtype=int)
    padded = np.concatenate(([False], states, [False]))
    changes = np.diff(padded.astype(np.int8))
    starts = np.flatnonzero(changes == 1)
    ends = np.flatnonzero(changes == -1)
    return ends - starts


def mean_holding_times(mask: np.ndarray) -> np.ndarray:
    """Per-flow average elephant holding time, in slots.

    ``mask`` is the ``(flows, slots)`` elephant matrix. Flows never in
    the elephant state get ``NaN`` (they have no holding time, and
    Fig. 1(c) excludes them).
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ClassificationError("expected a (flows, slots) mask")
    out = np.full(mask.shape[0], np.nan)
    for row in range(mask.shape[0]):
        runs = run_lengths(mask[row])
        if runs.size:
            out[row] = runs.mean()
    return out


def transition_counts(mask: np.ndarray) -> np.ndarray:
    """Per-flow number of state changes (either direction)."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ClassificationError("expected a (flows, slots) mask")
    if mask.shape[1] < 2:
        return np.zeros(mask.shape[0], dtype=int)
    return np.abs(np.diff(mask.astype(np.int8), axis=1)).sum(axis=1)


@dataclass(frozen=True)
class HoldingTimeSummary:
    """Aggregate holding-time statistics over a flow population."""

    num_flows_ever_elephant: int
    mean_holding_slots: float
    median_holding_slots: float
    single_slot_flows: int
    max_holding_slots: float

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "HoldingTimeSummary":
        """Summarise the elephant mask of one classification run.

        ``single_slot_flows`` counts flows whose *every* elephant episode
        lasted exactly one slot (average holding time 1) — the population
        the paper says exceeds 1000 under single-feature classification
        and collapses to ~50 with latent heat.
        """
        holding = mean_holding_times(mask)
        ever = holding[~np.isnan(holding)]
        if ever.size == 0:
            return cls(0, float("nan"), float("nan"), 0, float("nan"))
        return cls(
            num_flows_ever_elephant=int(ever.size),
            mean_holding_slots=float(ever.mean()),
            median_holding_slots=float(np.median(ever)),
            single_slot_flows=int((ever == 1.0).sum()),
            max_holding_slots=float(ever.max()),
        )

    def mean_holding_minutes(self, slot_seconds: float) -> float:
        """Mean holding time converted to minutes."""
        return self.mean_holding_slots * slot_seconds / 60.0
