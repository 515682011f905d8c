"""Histogram containers used by the holding-time analyses (Fig. 1(c))."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InsufficientDataError


@dataclass(frozen=True)
class Histogram:
    """A plain histogram: bin edges (length ``n+1``) and counts (``n``)."""

    edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        if self.edges.size != self.counts.size + 1:
            raise ValueError("edges must be one longer than counts")

    @property
    def total(self) -> int:
        """Total number of observations."""
        return int(self.counts.sum())

    @property
    def centers(self) -> np.ndarray:
        """Bin mid-points."""
        return (self.edges[:-1] + self.edges[1:]) / 2.0

    def mean(self) -> float:
        """Histogram-weighted mean of bin centres."""
        if self.total == 0:
            raise InsufficientDataError("mean of an empty histogram")
        return float((self.centers * self.counts).sum() / self.total)

    def nonzero_bins(self) -> list[tuple[float, int]]:
        """``(center, count)`` for populated bins, for compact reports."""
        return [
            (float(center), int(count))
            for center, count in zip(self.centers, self.counts)
            if count > 0
        ]


def integer_histogram(values: np.ndarray, max_value: int | None = None) -> Histogram:
    """Histogram of (near-)integer values with one bin per integer.

    Values are rounded half-up to the nearest integer; bin ``k`` covers
    ``[k - 0.5, k + 0.5)``. Used for holding times measured in whole
    slots. ``max_value`` extends (or clips) the axis; values above it are
    accumulated into the last bin so no observation is silently lost.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise InsufficientDataError("histogram of an empty sample")
    if np.any(values < 0):
        raise ValueError("integer_histogram expects non-negative values")
    rounded = np.floor(values + 0.5).astype(int)
    top = int(rounded.max()) if max_value is None else int(max_value)
    top = max(top, 1)
    clipped = np.minimum(rounded, top)
    counts = np.bincount(clipped, minlength=top + 1)
    edges = np.arange(0, top + 2, dtype=float) - 0.5
    return Histogram(edges=edges, counts=counts)
