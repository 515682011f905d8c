"""The result container every classifier produces."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ClassificationError
from repro.core.smoothing import ThresholdSeries
from repro.core.states import HoldingTimeSummary
from repro.flows.matrix import RateMatrix


@dataclass(frozen=True)
class ClassificationResult:
    """One classifier's verdicts over a rate matrix.

    ``elephant_mask[i, t]`` is ``True`` when flow ``i`` was classified
    as an elephant in slot ``t``. ``thresholds`` carries the raw and
    smoothed threshold series that produced the mask, and ``classifier``
    names the decision rule ("single-feature" or "latent-heat").
    """

    matrix: RateMatrix
    thresholds: ThresholdSeries
    elephant_mask: np.ndarray
    classifier: str

    def __post_init__(self) -> None:
        expected = (self.matrix.num_flows, self.matrix.num_slots)
        if self.elephant_mask.shape != expected:
            raise ClassificationError(
                f"mask shape {self.elephant_mask.shape} != {expected}"
            )
        if self.elephant_mask.dtype != np.bool_:
            raise ClassificationError("elephant mask must be boolean")
        if self.thresholds.num_slots != self.matrix.num_slots:
            raise ClassificationError("threshold series length mismatch")

    @property
    def scheme(self) -> str:
        """Name of the threshold-detection scheme."""
        return self.thresholds.scheme

    @property
    def label(self) -> str:
        """Human-readable run label, e.g. ``"aest latent-heat"``."""
        return f"{self.scheme} {self.classifier}"

    # ------------------------------------------------------------------
    # the paper's per-slot series
    # ------------------------------------------------------------------

    def elephants_per_slot(self) -> np.ndarray:
        """Number of elephants in each slot (Fig. 1(a) series)."""
        return self.elephant_mask.sum(axis=0)

    def traffic_fraction_per_slot(self) -> np.ndarray:
        """Fraction of traffic apportioned to elephants (Fig. 1(b)).

        Slots with zero total traffic yield 0 by convention.
        """
        total = self.matrix.total_per_slot()
        elephant_traffic = np.where(
            self.elephant_mask, self.matrix.rates, 0.0
        ).sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            fraction = np.where(total > 0, elephant_traffic / total, 0.0)
        return fraction

    def holding_summary(self) -> HoldingTimeSummary:
        """Holding-time statistics over the full horizon."""
        return HoldingTimeSummary.from_mask(self.elephant_mask)

    def restrict_slots(self, first_slot: int,
                       num_slots: int) -> "ClassificationResult":
        """Result restricted to a slot window (e.g. the busy period)."""
        sub_matrix = self.matrix.window(first_slot, num_slots)
        sub_thresholds = ThresholdSeries(
            scheme=self.thresholds.scheme,
            alpha=self.thresholds.alpha,
            raw=self.thresholds.raw[first_slot:first_slot + num_slots],
            smoothed=self.thresholds.smoothed[
                first_slot:first_slot + num_slots
            ],
            fallback_slots=tuple(
                s - first_slot for s in self.thresholds.fallback_slots
                if first_slot <= s < first_slot + num_slots
            ),
        )
        return ClassificationResult(
            matrix=sub_matrix,
            thresholds=sub_thresholds,
            elephant_mask=self.elephant_mask[
                :, first_slot:first_slot + num_slots
            ].copy(),
            classifier=self.classifier,
        )
