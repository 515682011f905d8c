"""Empirical distribution helpers: ECDF, CCDF and log-log CCDF curves.

The "aest" threshold scheme reasons about the flow-bandwidth distribution
through its log-log complementary distribution (LLCD) plot, so these
helpers are the common currency between the statistics and the
classification layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InsufficientDataError


def ecdf(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(x, F(x))`` of the empirical CDF at the sample points.

    ``F(x_k)`` is the fraction of samples ``<= x_k``; ties are collapsed
    so ``x`` is strictly increasing.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise InsufficientDataError("ECDF of an empty sample")
    ordered = np.sort(samples)
    x, last_index = np.unique(ordered, return_index=True)
    # index of the *last* occurrence of each unique value:
    counts = np.diff(np.append(last_index, ordered.size))
    cumulative = np.cumsum(counts)
    return x, cumulative / ordered.size


def ccdf(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(x, P(X > x))`` at the unique sample points.

    The largest value has probability 0 and is retained; callers that
    need logarithms should use :func:`llcd_points`, which drops it.
    """
    x, cdf_values = ecdf(samples)
    return x, 1.0 - cdf_values


def llcd_points(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-log CCDF curve ``(log10 x, log10 P(X > x))``.

    Only strictly positive samples are usable on a log axis; zeros and
    negatives raise, since a flow-bandwidth sample should have been
    filtered before reaching here. The maximum (probability 0) is dropped.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2:
        raise InsufficientDataError("LLCD needs at least two samples")
    if np.any(samples <= 0):
        raise InsufficientDataError("LLCD requires strictly positive samples")
    x, tail_probability = ccdf(samples)
    keep = tail_probability > 0
    if keep.sum() < 2:
        raise InsufficientDataError("LLCD collapsed to fewer than two points")
    log_x = np.log10(x[keep])
    log_p = np.log10(tail_probability[keep])
    # Adjacent distinct samples can round to the same value in log space;
    # keep the last point of each run so log_x is strictly increasing and
    # log_p carries the deeper (correct) tail probability.
    last_of_run = np.diff(log_x, append=np.inf) > 0
    log_x = log_x[last_of_run]
    log_p = log_p[last_of_run]
    if log_x.size < 2:
        raise InsufficientDataError("LLCD collapsed to fewer than two points")
    return log_x, log_p


def quantile(samples: np.ndarray, q: float) -> float:
    """Linear-interpolation quantile, ``0 <= q <= 1``."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise InsufficientDataError("quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    return float(np.quantile(samples, q))


@dataclass(frozen=True)
class ShareCurve:
    """Cumulative traffic-share curve of a slot's flow bandwidths.

    ``rates_desc`` are the flow bandwidths in descending order and
    ``cumulative_share[k]`` is the fraction of total traffic carried by
    the ``k+1`` largest flows. This is the structure behind the
    "β-constant-load" threshold and behind elephants-and-mice plots.
    """

    rates_desc: np.ndarray
    cumulative_share: np.ndarray

    @classmethod
    def from_rates(cls, rates: np.ndarray) -> "ShareCurve":
        rates = np.asarray(rates, dtype=float)
        positive = rates[rates > 0]
        if positive.size == 0:
            raise InsufficientDataError("share curve of all-zero rates")
        ordered = np.sort(positive)[::-1]
        total = ordered.sum()
        return cls(ordered, np.cumsum(ordered) / total)

    def flows_for_share(self, share: float) -> int:
        """Smallest number of top flows jointly carrying ``share`` of bytes."""
        if not 0.0 < share <= 1.0:
            raise ValueError(f"share {share} outside (0, 1]")
        index = int(np.searchsorted(self.cumulative_share, share, side="left"))
        return min(index + 1, self.rates_desc.size)
