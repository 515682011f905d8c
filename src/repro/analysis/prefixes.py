"""Prefix-characteristics analysis (the paper's T3 observations).

Section III: elephants "correspond to networks with prefix lengths
between /12 and /26"; of ~100 active /8 networks only three were ever
elephants; prefix size and elephant-ness are essentially uncorrelated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.result import ClassificationResult


@dataclass(frozen=True)
class PrefixLengthReport:
    """Elephant population broken down by prefix length."""

    label: str
    elephant_lengths: dict[int, int]
    active_lengths: dict[int, int]
    slash8_active: int
    slash8_elephants: int
    min_elephant_length: int
    max_elephant_length: int
    length_rate_correlation: float

    @classmethod
    def from_result(cls, result: ClassificationResult) -> "PrefixLengthReport":
        mask = result.elephant_mask
        ever_elephant = mask.any(axis=1)
        ever_active = result.matrix.ever_active_mask()
        lengths = np.array([p.length for p in result.matrix.prefixes])

        elephant_lengths = _length_counts(lengths[ever_elephant])
        active_lengths = _length_counts(lengths[ever_active])

        slash8 = lengths == 8
        mean_rates = result.matrix.rates.mean(axis=1)
        active = ever_active & (mean_rates > 0)
        correlation = 0.0
        if active.sum() >= 3:
            with np.errstate(invalid="ignore"):
                matrix = np.corrcoef(lengths[active],
                                     np.log10(mean_rates[active]))
            if np.isfinite(matrix[0, 1]):
                correlation = float(matrix[0, 1])

        elephant_only = lengths[ever_elephant]
        return cls(
            label=result.label,
            elephant_lengths=elephant_lengths,
            active_lengths=active_lengths,
            slash8_active=int((slash8 & ever_active).sum()),
            slash8_elephants=int((slash8 & ever_elephant).sum()),
            min_elephant_length=(int(elephant_only.min())
                                 if elephant_only.size else 0),
            max_elephant_length=(int(elephant_only.max())
                                 if elephant_only.size else 0),
            length_rate_correlation=correlation,
        )

    def elephant_share_by_length(self) -> dict[int, float]:
        """Fraction of active prefixes of each length that are elephants."""
        shares = {}
        for length, active in sorted(self.active_lengths.items()):
            elephants = self.elephant_lengths.get(length, 0)
            shares[length] = elephants / active if active else 0.0
        return shares


def _length_counts(lengths: np.ndarray) -> dict[int, int]:
    unique, counts = np.unique(lengths, return_counts=True)
    return {int(u): int(c) for u, c in zip(unique, counts)}
