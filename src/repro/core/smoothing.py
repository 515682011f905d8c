"""Threshold-update phase: EWMA smoothing with explicit fallbacks.

The paper smooths the detected threshold across slots so that elephants
are not reclassified by measurement noise in the threshold itself:

    ``B̄_th(t+1) = α · B̄_th(t) + (1 − α) · B_th(t)``, α = 0.9.

:class:`ThresholdTracker` implements the online protocol: the smoothed
threshold used to classify slot ``t`` depends only on raw detections
from slots ``< t`` (slot 0 is classified with its own raw detection, as
some bootstrap is unavoidable). When a detector fails on a slot (aest
finds no tail), the tracker substitutes the previous raw threshold —
or a byte-quantile fallback when there is no history — and counts the
event, so experiments can report how often the scheme needed help.

A slot whose cut falls below a bounded table's tracked flows
(:class:`~repro.errors.CutBelowTableError`) is classified by the EWMA
(its tracked-only cut while there is no history) and never enters it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import (ClassificationError, CutBelowTableError,
                          EstimatorError)
from repro.core.thresholds import QuantileThreshold, ThresholdDetector

#: The paper's smoothing weight on history.
DEFAULT_ALPHA = 0.9


@dataclass
class SlotThreshold:
    """Thresholds attached to one slot."""

    slot: int
    raw: float
    smoothed: float
    fallback_used: bool
    #: ``raw`` is a tracked-only cut, kept out of the EWMA.
    below_table: bool = False


@dataclass
class ThresholdTracker:
    """Stateful detect-then-smooth pipeline over consecutive slots."""

    detector: ThresholdDetector
    alpha: float = DEFAULT_ALPHA
    fallback: ThresholdDetector = field(default_factory=QuantileThreshold)

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha < 1.0:
            raise ClassificationError(f"alpha {self.alpha} outside [0, 1)")
        self._pending_smoothed: float | None = None
        self._last_raw: float | None = None
        self._slot = 0
        self.fallback_slots: list[int] = []

    @property
    def has_history(self) -> bool:
        """Whether any slot has produced a raw detection yet."""
        return self._last_raw is not None

    def observe(
        self, rates: np.ndarray, background: float = 0.0
    ) -> SlotThreshold:
        """Process one slot's rates; returns its thresholds.

        ``background`` is the slot's untracked traffic (a rate). The
        returned ``smoothed`` value is the classification threshold
        for *this* slot (computed from past raw detections); the ``raw``
        value is this slot's detection, which feeds the EWMA for the
        next slot unless the slot is below the table.
        """
        fallback_used = below = False
        try:
            raw = float(self.detector.detect(rates, background))
        except CutBelowTableError as error:
            below, raw = True, float(error.tracked_cut)
        except EstimatorError:
            fallback_used = True
            self.fallback_slots.append(self._slot)
            if self._last_raw is not None:
                raw = self._last_raw
            else:
                raw = float(self.fallback.detect(rates, background))
        if raw <= 0 or not np.isfinite(raw):
            raise ClassificationError(
                f"detector {self.detector.name!r} produced bad threshold "
                f"{raw!r} at slot {self._slot}"
            )

        if self._pending_smoothed is None:
            smoothed = raw  # bootstrap: slot 0 classified by its own raw
        else:
            smoothed = self._pending_smoothed

        if not below:
            # B̄(t+1) = alpha * B̄(t) + (1 - alpha) * raw(t)
            self._pending_smoothed = (self.alpha * smoothed
                                      + (1.0 - self.alpha) * raw)
            self._last_raw = raw
        elif self._last_raw is None:
            # what a later slot with no detection (a gap) falls back on
            self._last_raw = raw
        result = SlotThreshold(self._slot, raw, smoothed, fallback_used,
                               below)
        self._slot += 1
        return result

    def run(self, rate_columns: np.ndarray) -> "ThresholdSeries":
        """Process a whole ``(flows, slots)`` matrix of rates."""
        if rate_columns.ndim != 2:
            raise ClassificationError("expected a 2-D rate matrix")
        slots = [self.observe(rate_columns[:, t])
                 for t in range(rate_columns.shape[1])]
        return ThresholdSeries.from_slots(slots, self.detector.name,
                                          self.alpha)


@dataclass(frozen=True)
class ThresholdSeries:
    """Raw and smoothed threshold series for a whole run."""

    scheme: str
    alpha: float
    raw: np.ndarray
    smoothed: np.ndarray
    fallback_slots: tuple[int, ...]

    @classmethod
    def from_slots(cls, slots: list[SlotThreshold], scheme: str,
                   alpha: float) -> "ThresholdSeries":
        return cls(
            scheme=scheme,
            alpha=alpha,
            raw=np.array([s.raw for s in slots]),
            smoothed=np.array([s.smoothed for s in slots]),
            fallback_slots=tuple(s.slot for s in slots if s.fallback_used),
        )

    @property
    def num_slots(self) -> int:
        return self.raw.size

    @property
    def fallback_rate(self) -> float:
        """Fraction of slots where the detector needed the fallback."""
        if self.num_slots == 0:
            return 0.0
        return len(self.fallback_slots) / self.num_slots

    def smoothness(self) -> float:
        """Mean absolute relative step of the smoothed series.

        The paper chose α = 0.9 because it made the threshold
        "sufficiently smooth"; this is the metric our α-ablation sweeps.
        """
        if self.num_slots < 2:
            return 0.0
        steps = np.abs(np.diff(self.smoothed))
        baseline = np.maximum(self.smoothed[:-1], 1e-12)
        return float((steps / baseline).mean())
