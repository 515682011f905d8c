"""Online, slot-at-a-time classification.

The batch classifiers in :mod:`repro.core.single_feature` and
:mod:`repro.core.latent_heat` consume a whole rate matrix; a deployed
traffic-engineering system sees one measurement slot at a time. This
module provides that interface with identical semantics: feeding the
columns of a matrix through :class:`OnlineClassifier` produces exactly
the masks the batch classifiers produce (asserted in the test suite).

The latent-heat state per flow is a running window sum maintained with
a ring buffer of per-slot deviations, so memory is
``O(num_flows × window)`` and each slot costs ``O(num_flows)`` plus one
threshold detection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ClassificationError
from repro.core.latent_heat import DEFAULT_WINDOW_SLOTS
from repro.core.smoothing import DEFAULT_ALPHA, SlotThreshold, ThresholdTracker
from repro.core.thresholds import ThresholdDetector


@dataclass(frozen=True)
class SlotVerdict:
    """The outcome of one observed slot."""

    slot: int
    thresholds: SlotThreshold
    elephant_mask: np.ndarray
    latent_heat: np.ndarray | None

    @property
    def num_elephants(self) -> int:
        """Number of flows classified as elephants in this slot."""
        return int(self.elephant_mask.sum())

    def elephants(self) -> np.ndarray:
        """Row indices of this slot's elephants."""
        return np.flatnonzero(self.elephant_mask)


class OnlineClassifier:
    """Streaming classifier over a growable flow population.

    ``num_flows`` sets the initial population (flow identity is
    positional, as in :class:`~repro.flows.matrix.RateMatrix`);
    :meth:`grow` appends rows mid-stream when new flows are discovered,
    without disturbing existing rows. With ``window=1`` the decision
    rule degenerates to ``x > B̄`` only when using latent heat over a
    single slot — pass ``use_latent_heat=False`` for the exact
    single-feature rule.
    """

    def __init__(
        self,
        detector: ThresholdDetector,
        num_flows: int,
        alpha: float = DEFAULT_ALPHA,
        window: int = DEFAULT_WINDOW_SLOTS,
        use_latent_heat: bool = True,
    ) -> None:
        if num_flows < 1:
            raise ClassificationError("num_flows must be >= 1")
        if window < 1:
            raise ClassificationError("window must be >= 1")
        self.num_flows = num_flows
        self.window = window
        self.use_latent_heat = use_latent_heat
        self._tracker = ThresholdTracker(detector, alpha=alpha)
        self._deviation_ring = np.zeros((num_flows, window))
        self._heat = np.zeros(num_flows)
        self._smoothed_ring = np.zeros(window)
        self._slot = 0

    def grow(self, num_flows: int) -> None:
        """Extend the population to ``num_flows``, appending new rows.

        Existing flows keep their row indices and all their state — the
        positional identity guarantee dynamic sources rely on. Each new
        row is initialised as if the flow had been present with zero
        bandwidth since slot 0: its deviation ring is backfilled with
        ``-B̄_th(t)`` for the observed slots still inside the window, so
        its latent heat (and therefore every future verdict) is exactly
        what the batch classifier computes for an all-zero row. The
        population can only grow; shrinking would reassign identities.
        """
        if num_flows < self.num_flows:
            raise ClassificationError(
                f"cannot shrink population from {self.num_flows} "
                f"to {num_flows}"
            )
        extra = num_flows - self.num_flows
        if extra == 0:
            return
        backfill = np.zeros(self.window)
        for age in range(1, min(self._slot, self.window) + 1):
            position = (self._slot - age) % self.window
            backfill[position] = -self._smoothed_ring[position]
        self._deviation_ring = np.vstack(
            [self._deviation_ring, np.tile(backfill, (extra, 1))]
        )
        self._heat = np.concatenate(
            [self._heat, np.full(extra, backfill.sum())]
        )
        self.num_flows = num_flows

    def observe_slot(
        self,
        rates: np.ndarray,
        residual_row: int | None = None,
        suppress_rows: np.ndarray | None = None,
    ) -> SlotVerdict:
        """Consume one slot's flow bandwidths and classify it.

        ``residual_row`` names the row that is an *accounting artifact*
        rather than a flow: the residual row a bounded aggregation
        backend emits for untracked traffic. It is never classified as
        an elephant and is no candidate for the cut (its bandwidth is
        not a single flow's), but its bandwidth is the slot's traffic
        all the same: it reaches the detector as the ``background`` its
        cut divides. Its per-row state evolves as an all-zero flow,
        which keeps row identities aligned with the frame population.

        ``suppress_rows`` names rows whose *evidence* is too thin to
        trust this slot — the sampling variance guard: a flow seen in
        too few sampled packets may owe its whole (inverted) bandwidth
        to one lucky draw. Unlike exclusion, suppression is
        verdict-only: the rows' rates still feed threshold detection
        and their per-row state evolves normally (the estimates are
        unbiased, just noisy); they simply cannot be elephants in this
        slot's verdict.
        """
        rates = np.asarray(rates, dtype=float)
        if rates.shape != (self.num_flows,):
            raise ClassificationError(
                f"expected {self.num_flows} rates, got shape {rates.shape}"
            )
        unexcluded = rates
        background = 0.0
        if residual_row is not None:
            background = float(rates[residual_row])
            rates = rates.copy()
            rates[residual_row] = 0.0
        if (
            residual_row is not None
            and not rates.any()
            and not self._tracker.has_history
        ):
            # The exclusion zeroed the whole slot (a sketch frame whose
            # traffic is all residual) before any detection history
            # exists. Bootstrap the threshold from the *unexcluded*
            # rates: the residual is real link traffic, so detection
            # succeeds with a positive threshold (keeping the series
            # invariant raw > 0) and no row can clear it — zero
            # elephants, and the EWMA starts from link level. A slot
            # that arrives genuinely empty still raises from the
            # detector, exactly like the batch engine.
            thresholds = self._tracker.observe(unexcluded)
        else:
            thresholds = self._tracker.observe(rates, background)
        self._smoothed_ring[self._slot % self.window] = thresholds.smoothed
        deviations = rates - thresholds.smoothed

        if self.use_latent_heat:
            ring_slot = self._slot % self.window
            self._heat += deviations - self._deviation_ring[:, ring_slot]
            self._deviation_ring[:, ring_slot] = deviations
            mask = self._heat > 0.0
            heat = self._heat.copy()
        else:
            mask = rates > thresholds.smoothed
            heat = None

        if residual_row is not None:
            mask[residual_row] = False
        if suppress_rows is not None:
            suppressed = np.asarray(suppress_rows, dtype=np.int64)
            suppressed = suppressed[
                (suppressed >= 0) & (suppressed < self.num_flows)
            ]
            if suppressed.size:
                mask[suppressed] = False

        verdict = SlotVerdict(
            slot=self._slot,
            thresholds=thresholds,
            elephant_mask=mask,
            latent_heat=heat,
        )
        self._slot += 1
        return verdict
