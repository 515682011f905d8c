"""The Hill estimator, kept only as :mod:`repro.stats.aest`'s cross-check:
``tests/stats/test_aest.py`` compares the two on a known tail index and
``examples/tail_analysis.py`` prints both. No command runs it."""

from __future__ import annotations

import numpy as np

from repro.errors import InsufficientDataError


def hill_estimator(samples: np.ndarray, k: int) -> float:
    """Hill's estimator of the tail index from the top ``k`` order stats.

    For ``X`` with ``P(X > x) ~ x^{-alpha}``, returns ``alpha_hat``.
    ``k`` must satisfy ``1 <= k < n`` and the involved samples must be
    positive.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n < 2:
        raise InsufficientDataError("Hill estimator needs >= 2 samples")
    if not 1 <= k < n:
        raise ValueError(f"k={k} outside 1..{n - 1}")
    ordered = np.sort(samples)[::-1]
    top = ordered[:k]
    pivot = ordered[k]
    if pivot <= 0 or np.any(top <= 0):
        raise InsufficientDataError("Hill estimator requires positive samples")
    log_excess = np.log(top / pivot)
    mean_excess = float(log_excess.mean())
    if mean_excess <= 0:
        raise InsufficientDataError("degenerate top-k (all samples equal)")
    return 1.0 / mean_excess

