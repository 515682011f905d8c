"""Classification churn: how often flows flip between classes.

The motivation for the latent-heat feature is to "avoid unnecessary
reclassification of flows"; these metrics quantify it so the
single-feature vs two-feature comparison can be asserted, not eyeballed.
It stays for ``test_paper_claims.py::test_churn_reduction_everywhere``
and the paper bench ``bench_ablation_alpha.py``; no command runs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.result import ClassificationResult
from repro.core.states import transition_counts


@dataclass(frozen=True)
class ChurnReport:
    """Reclassification statistics of one run."""

    label: str
    total_transitions: int
    transitions_per_slot: float
    mean_transitions_per_active_flow: float
    class_overlap: float

    @classmethod
    def from_result(cls, result: ClassificationResult) -> "ChurnReport":
        transitions = transition_counts(result.elephant_mask)
        ever_active = result.elephant_mask.any(axis=1)
        active_transitions = transitions[ever_active]
        num_slots = result.matrix.num_slots
        return cls(
            label=result.label,
            total_transitions=int(transitions.sum()),
            transitions_per_slot=float(transitions.sum() / max(1, num_slots)),
            mean_transitions_per_active_flow=(
                float(active_transitions.mean())
                if active_transitions.size else 0.0
            ),
            class_overlap=_mean_consecutive_overlap(result.elephant_mask),
        )


def _mean_consecutive_overlap(mask: np.ndarray) -> float:
    """Average Jaccard overlap of the elephant set across adjacent slots.

    1.0 means the elephant set never changes; low values mean heavy
    churn. Slot pairs with no elephants on either side are skipped.
    """
    if mask.shape[1] < 2:
        return 1.0
    overlaps = []
    for t in range(mask.shape[1] - 1):
        now = mask[:, t]
        nxt = mask[:, t + 1]
        union = int(np.logical_or(now, nxt).sum())
        if union == 0:
            continue
        intersection = int(np.logical_and(now, nxt).sum())
        overlaps.append(intersection / union)
    if not overlaps:
        return 1.0
    return float(np.mean(overlaps))


def churn_reduction(single_feature: ClassificationResult,
                    latent_heat: ClassificationResult) -> float:
    """Factor by which latent heat reduces total transitions (>1 is better)."""
    single = ChurnReport.from_result(single_feature)
    latent = ChurnReport.from_result(latent_heat)
    if latent.total_transitions == 0:
        return float("inf")
    return single.total_transitions / latent.total_transitions
