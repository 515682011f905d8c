"""The aest scaling estimator (Crovella & Taqqu, 1999), reimplemented.

``aest`` estimates the index of a heavy (power-law) tail from *scaling
properties*: if ``P(X > x) ~ c x^{-alpha}`` with ``alpha < 2``, then the
sum of ``m`` independent copies satisfies ``P(X_1 + ... + X_m > x) ~
m c x^{-alpha}`` for large ``x``. On a log-log complementary distribution
(LLCD) plot, the curve of the ``m``-aggregated dataset is therefore a
copy of the base curve shifted *horizontally* by ``log10(m) / alpha`` in
the tail region. Measuring that shift between successive dyadic
aggregation levels yields ``alpha``; the region where the shift is
consistent tells us *where the power law starts*.

The paper under reproduction uses exactly that second output: the "aest"
threshold is "the first point after which such [power-law] behaviour can
be witnessed" in the slot's flow-bandwidth distribution.

Procedure (per pair of aggregation levels ``m`` and ``2m``):

1. Build both LLCD curves.
2. Probe a grid of tail probabilities shared by both curves (at most
   ``tail_fraction`` of the mass, at least a few samples deep).
3. At each probe, interpolate the ``log10 x`` position on both curves and
   estimate each curve's local slope by least squares over a window.
4. Accept the probe when (a) both slopes are decisively negative (we are
   in a falling tail, not the body's plateau), (b) the curves are locally
   parallel (consistent scaling), and (c) the local slope magnitude
   agrees with the shift-implied index — in a genuine power-law region
   the LLCD slope *is* ``-alpha``, whereas light-tailed curves (e.g.
   exponential) are locally far steeper than their apparent shift.
5. Each accepted probe yields ``alpha = log10(2) / shift``; the estimate
   is the median over all accepted probes of all level pairs, and the
   tail onset is the smallest accepted ``x`` on the *unaggregated* curve.
   Fewer than ``min_accepted`` accepted probes means no power-law tail
   was found.

This is a faithful reimplementation from the published description, not
a port of the original C tool; tolerances are validated against known
Pareto data in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import InsufficientDataError, TailNotFoundError
from repro.stats.ecdf import llcd_points

#: Default number of dyadic aggregation levels (m = 1, 2, 4, ... 2^(J-1)).
DEFAULT_LEVELS = 5

#: Aggregated datasets smaller than this are not informative.
MIN_AGGREGATED_SIZE = 64


@dataclass(frozen=True)
class AestConfig:
    """Tuning knobs of the aest procedure (defaults follow the paper)."""

    max_levels: int = DEFAULT_LEVELS
    tail_fraction: float = 0.10
    min_tail_samples: int = 5
    probes_per_pair: int = 30
    slope_window: int = 5
    min_tail_slope: float = -0.30
    parallel_tolerance: float = 0.25
    slope_match_tolerance: float = 0.45
    min_accepted: int = 8
    alpha_bounds: tuple[float, float] = (0.2, 4.0)

    def validate(self) -> None:
        if self.max_levels < 2:
            raise ValueError("aest needs at least two aggregation levels")
        if not 0.0 < self.tail_fraction <= 0.5:
            raise ValueError("tail_fraction must be in (0, 0.5]")
        if self.slope_window < 2:
            raise ValueError("slope_window must be >= 2")
        if self.min_tail_slope >= 0:
            raise ValueError("min_tail_slope must be negative")
        if self.slope_match_tolerance <= 0:
            raise ValueError("slope_match_tolerance must be positive")
        if self.min_accepted < 1:
            raise ValueError("min_accepted must be >= 1")
        low, high = self.alpha_bounds
        if not 0 < low < high:
            raise ValueError("alpha_bounds must satisfy 0 < low < high")


@dataclass(frozen=True)
class AestResult:
    """Outcome of an aest run.

    ``alpha`` is the tail-index estimate; ``tail_onset`` the smallest
    sample value at which power-law scaling was witnessed (in the units
    of the input data); ``num_accepted`` counts accepted probes across
    level pairs; ``alphas`` keeps the per-probe estimates for diagnostics.
    """

    alpha: float
    tail_onset: float
    num_accepted: int
    alphas: np.ndarray = field(repr=False)

    @property
    def is_heavy(self) -> bool:
        """Heavy-tailed in the infinite-variance sense (alpha < 2)."""
        return self.alpha < 2.0


def aggregate_sums(samples: np.ndarray, m: int) -> np.ndarray:
    """Non-overlapping block sums of ``samples`` with block size ``m``.

    Trailing samples that do not fill a block are dropped, as in the
    original tool.
    """
    samples = np.asarray(samples, dtype=float)
    if m < 1:
        raise ValueError(f"aggregation level {m} must be >= 1")
    if m == 1:
        return samples.copy()
    usable = (samples.size // m) * m
    if usable == 0:
        return np.empty(0, dtype=float)
    return samples[:usable].reshape(-1, m).sum(axis=1)


def _local_slope(log_x: np.ndarray, log_p: np.ndarray, index: int,
                 window: int) -> float:
    """Least-squares slope of the curve in a window centred on ``index``."""
    low = max(0, index - window)
    high = min(log_x.size, index + window + 1)
    xs = log_x[low:high]
    ys = log_p[low:high]
    if xs.size < 2 or np.ptp(xs) == 0:
        return np.nan
    x_centered = xs - xs.mean()
    denominator = float((x_centered ** 2).sum())
    if denominator == 0:
        return np.nan
    return float((x_centered * (ys - ys.mean())).sum() / denominator)


def _interp_x_at_p(log_x: np.ndarray, log_p: np.ndarray,
                   target_log_p: float) -> tuple[float, int]:
    """Interpolate ``log10 x`` at tail probability ``target_log_p``.

    ``log_p`` decreases along the curve; returns the interpolated
    position and the index of the nearest curve point (for slope
    estimation). Returns ``(nan, -1)`` outside the curve's range.
    """
    if target_log_p > log_p[0] or target_log_p < log_p[-1]:
        return np.nan, -1
    # log_p is non-increasing; search on the reversed (increasing) array.
    reversed_p = log_p[::-1]
    position = np.searchsorted(reversed_p, target_log_p, side="left")
    upper = log_p.size - 1 - position  # index with log_p <= target
    upper = int(np.clip(upper, 0, log_p.size - 1))
    lower = min(upper + 1, log_p.size - 1)
    p_hi, p_lo = log_p[upper], log_p[lower]
    if p_hi == p_lo:
        return float(log_x[upper]), upper
    weight = (target_log_p - p_lo) / (p_hi - p_lo)
    value = log_x[lower] + weight * (log_x[upper] - log_x[lower])
    nearest = upper if abs(target_log_p - p_hi) < abs(target_log_p - p_lo) else lower
    return float(value), nearest


def aest(samples: np.ndarray, config: AestConfig | None = None) -> AestResult:
    """Run the aest tail estimator on positive ``samples``.

    Raises :class:`~repro.errors.InsufficientDataError` when the input is
    too small and :class:`~repro.errors.TailNotFoundError` when no probe
    exhibits consistent power-law scaling (e.g. exponential data).
    """
    if config is None:
        config = AestConfig()
    config.validate()
    samples = np.asarray(samples, dtype=float)
    samples = samples[samples > 0]
    if samples.size < 2 * MIN_AGGREGATED_SIZE:
        raise InsufficientDataError(
            f"aest needs at least {2 * MIN_AGGREGATED_SIZE} positive samples, "
            f"got {samples.size}"
        )

    curves: list[tuple[np.ndarray, np.ndarray]] = []
    level = 1
    for _ in range(config.max_levels):
        aggregated = aggregate_sums(samples, level)
        if aggregated.size < MIN_AGGREGATED_SIZE:
            break
        curves.append(llcd_points(aggregated))
        level *= 2
    if len(curves) < 2:
        raise InsufficientDataError("not enough data for two aggregation levels")

    shift_per_pair = np.log10(2.0)
    accepted_alphas: list[float] = []
    accepted_onsets: list[float] = []

    for pair_index in range(len(curves) - 1):
        base_x, base_p = curves[pair_index]
        agg_x, agg_p = curves[pair_index + 1]
        probes = _probe_grid(base_p, agg_p, config)
        for target in probes:
            x_base, i_base = _interp_x_at_p(base_x, base_p, target)
            x_agg, i_agg = _interp_x_at_p(agg_x, agg_p, target)
            if not (np.isfinite(x_base) and np.isfinite(x_agg)):
                continue
            slope_base = _local_slope(base_x, base_p, i_base,
                                      config.slope_window)
            slope_agg = _local_slope(agg_x, agg_p, i_agg, config.slope_window)
            if not (np.isfinite(slope_base) and np.isfinite(slope_agg)):
                continue
            if slope_base > config.min_tail_slope:
                continue
            if slope_agg > config.min_tail_slope:
                continue
            scale = max(abs(slope_base), abs(slope_agg))
            if abs(slope_base - slope_agg) > config.parallel_tolerance * scale:
                continue
            shift = x_agg - x_base
            if shift <= 0:
                continue
            alpha = shift_per_pair / shift
            low, high = config.alpha_bounds
            if not low <= alpha <= high:
                continue
            # In a power-law region the LLCD slope equals -alpha; a local
            # slope much steeper than the shift-implied index betrays a
            # light tail masquerading through aggregation noise.
            mean_slope = 0.5 * (abs(slope_base) + abs(slope_agg))
            if abs(mean_slope - alpha) > config.slope_match_tolerance * alpha:
                continue
            accepted_alphas.append(alpha)
            if pair_index == 0:
                accepted_onsets.append(10.0 ** x_base)

    if len(accepted_alphas) < config.min_accepted:
        raise TailNotFoundError(
            f"only {len(accepted_alphas)} probes showed consistent power-law "
            f"scaling (need {config.min_accepted})"
        )
    if not accepted_onsets:
        raise TailNotFoundError(
            "scaling witnessed only at high aggregation levels; onset on the "
            "base distribution is undefined"
        )
    alphas = np.array(accepted_alphas, dtype=float)
    return AestResult(
        alpha=float(np.median(alphas)),
        tail_onset=float(min(accepted_onsets)),
        num_accepted=alphas.size,
        alphas=alphas,
    )


def _probe_grid(base_p: np.ndarray, agg_p: np.ndarray,
                config: AestConfig) -> np.ndarray:
    """Shared tail probabilities (log10) probed on both curves.

    The grid spans from the ``tail_fraction`` quantile down to the
    ``min_tail_samples``-th deepest point of the *aggregated* curve, the
    shorter of the two.
    """
    top = np.log10(config.tail_fraction)
    # Deepest usable probability: keep a few samples beyond the probe to
    # make local slopes meaningful on both curves.
    deepest = max(base_p[-1], agg_p[-1])
    floor = deepest + np.log10(config.min_tail_samples)
    start = min(top, base_p[0], agg_p[0])
    if floor >= start:
        return np.empty(0, dtype=float)
    return np.linspace(start, floor, num=config.probes_per_pair)
