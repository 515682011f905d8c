"""Threshold-detection phase: the per-slot separation bandwidth.

The paper proposes two ways to pick the raw threshold ``B_th(t)`` from a
slot's flow-bandwidth sample:

- :class:`AestThreshold` — "the first point after which power-law
  behaviour can be witnessed" in the bandwidth distribution, from the
  aest scaling estimator.
- :class:`ConstantLoadThreshold` — the bandwidth above which flows
  jointly carry a target fraction β of the slot's traffic
  ("β-constant load", β = 0.8 in the paper).

A bounded table's untracked bytes (its residual row) reach every
detector as ``detect(rates, background)``: a slot's traffic is the
tracked rates plus that background.

Detectors are stateless and may raise
:class:`~repro.errors.TailNotFoundError` /
:class:`~repro.errors.InsufficientDataError`; fallback policy lives in
:class:`repro.core.smoothing.ThresholdTracker` so that every scheme
shares the same, explicitly accounted fallback behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro.errors import CutBelowTableError, InsufficientDataError
from repro.stats.ecdf import ShareCurve

if TYPE_CHECKING:
    from repro.stats.aest import AestConfig


class ThresholdDetector(Protocol):
    """Anything that can turn a slot's rates into a separation threshold."""

    name: str

    def detect(self, rates: np.ndarray, background: float = 0.0) -> float:
        """Raw threshold for one slot's flow bandwidths (positive only);
        ``background`` is the slot's untracked traffic, as a rate."""
        ...


def positive_rates(rates: np.ndarray) -> np.ndarray:
    """Filter a slot's rate vector down to the active flows."""
    rates = np.asarray(rates, dtype=float)
    return rates[rates > 0]


@dataclass(frozen=True)
class ConstantLoadThreshold:
    """The "β-constant-load" detector.

    The threshold is placed so that flows *exceeding* it account for the
    fraction ``beta`` of the slot's total traffic: we find the smallest
    top-``k`` set reaching the share, then put the threshold midway
    between the ``k``-th largest rate and the next one down, so the
    strict comparison ``x > B_th`` selects exactly that set.

    The total includes the ``background``, so the top set carries a
    share ``beta * (tracked + background) / tracked`` of the tracked
    bytes; at 1 or more the cut is below the table
    (:class:`~repro.errors.CutBelowTableError`).
    """

    beta: float = 0.8
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta {self.beta} outside (0, 1)")
        if not self.name:
            object.__setattr__(self, "name", f"{self.beta:g}-constant-load")

    def detect(self, rates: np.ndarray, background: float = 0.0) -> float:
        active = positive_rates(rates)
        if active.size == 0:
            raise InsufficientDataError("no active flows in slot")
        curve = ShareCurve.from_rates(active)
        if background > 0.0:
            tracked = float(active.sum())
            share = self.beta * (tracked + background) / tracked
            if share >= 1.0:
                raise CutBelowTableError(self._cut(curve, self.beta))
            return self._cut(curve, share)
        return self._cut(curve, self.beta)

    @staticmethod
    def _cut(curve: ShareCurve, share: float) -> float:
        k = curve.flows_for_share(share)
        kth = curve.rates_desc[k - 1]
        next_down = curve.rates_desc[k] if k < curve.rates_desc.size else 0.0
        return float((kth + next_down) / 2.0)


def _aest_config() -> AestConfig:
    # the estimator is imported in here and in `AestThreshold.detect`,
    # not up top: only an aest run loads it
    from repro.stats.aest import AestConfig

    return AestConfig(tail_fraction=0.16)


@dataclass(frozen=True)
class AestThreshold:
    """The "aest" detector: the onset of the power-law tail.

    ``config`` tunes the underlying estimator. Raises
    :class:`~repro.errors.TailNotFoundError` when the slot's distribution
    shows no consistent scaling region — the tracker then applies its
    fallback policy.

    The default probes slightly deeper into the distribution
    (``tail_fraction = 0.16``) than the bare estimator: threshold
    detection wants the *onset* of scaling, which for slot-wise flow
    bandwidths sits near the top decile, and the acceptance criteria
    (parallelism + slope match) still reject body points.

    The ``background`` is accepted and not used: a tail fit reads the
    shape of the tracked rates, and an untracked total has no shape.
    """

    config: AestConfig = field(default_factory=_aest_config)
    name: str = field(default="aest", compare=False)

    def detect(self, rates: np.ndarray, background: float = 0.0) -> float:
        from repro.stats.aest import aest

        active = positive_rates(rates)
        result = aest(active, config=self.config)
        return float(result.tail_onset)


@dataclass(frozen=True)
class QuantileThreshold:
    """A byte-weighted quantile detector, used as fallback and baseline.

    The threshold is the bandwidth above which the *byte-weighted* share
    of traffic is ``1 - quantile``; e.g. ``quantile=0.2`` places 80 % of
    bytes above — a crude constant-load approximation that needs no
    sorting of shares and always succeeds. The ``background`` counts
    as bytes below every tracked flow.
    """

    quantile: float = 0.2
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile < 1.0:
            raise ValueError(f"quantile {self.quantile} outside (0, 1)")
        if not self.name:
            object.__setattr__(
                self, "name", f"byte-quantile-{self.quantile:g}"
            )

    def detect(self, rates: np.ndarray, background: float = 0.0) -> float:
        active = positive_rates(rates)
        if active.size == 0:
            raise InsufficientDataError("no active flows in slot")
        order = np.argsort(active)
        sorted_rates = active[order]
        cumulative = np.cumsum(sorted_rates) + background
        target = self.quantile * cumulative[-1]
        index = int(np.searchsorted(cumulative, target, side="left"))
        index = min(index, sorted_rates.size - 1)
        return float(sorted_rates[index])
