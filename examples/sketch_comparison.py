#!/usr/bin/env python
"""Heavy hitters are not elephants: the paper's thesis vs volume alone.

Contrasts the volatility of the latent-heat elephants with the
single-feature elephants and with the exact top-k flows of every slot,
on the same workload. The top-k is what any per-slot heavy-hitter
sketch (Space-Saving et al.) can at best report; even this perfect
oracle churns its member set — persistence needs the second feature.

Run:
    python examples/sketch_comparison.py
"""

import numpy as np

from repro.analysis import format_table
from repro.core import (
    ConstantLoadThreshold,
    LatentHeatClassifier,
    SingleFeatureClassifier,
)
from repro.core.states import HoldingTimeSummary, transition_counts
from repro.traffic import west_coast_link


def top_k_per_slot(matrix, k):
    """The mask of each slot's ``k`` largest active flows."""
    mask = np.zeros(matrix.rates.shape, dtype=bool)
    for slot, rates in matrix.iter_slots():
        active = min(k, int((rates > 0).sum()))
        if active:
            mask[np.argpartition(rates, -active)[-active:], slot] = True
    return mask


def main() -> None:
    link = west_coast_link(scale=0.15)
    matrix = link.matrix
    print(f"workload: {matrix.num_flows} flows x {matrix.num_slots} slots")

    threshold = ConstantLoadThreshold(0.8)
    latent = LatentHeatClassifier(threshold).classify(matrix)
    single = SingleFeatureClassifier(threshold).classify(matrix)
    k = max(1, int(latent.elephants_per_slot().mean()))
    print(f"comparing against per-slot top-{k} heavy hitters\n")

    rows = []
    for name, mask in [
        ("latent-heat elephants", latent.elephant_mask),
        ("single-feature elephants", single.elephant_mask),
        ("exact top-k per slot", top_k_per_slot(matrix, k)),
    ]:
        summary = HoldingTimeSummary.from_mask(mask)
        rows.append(
            [
                name,
                f"{summary.mean_holding_slots:.1f}",
                summary.single_slot_flows,
                int(transition_counts(mask).sum()),
            ]
        )
    print(
        format_table(
            ["method", "mean holding (slots)", "one-slot flows", "transitions"],
            rows,
            title="volatility comparison",
        )
    )
    print(
        "\nTake-away: a per-slot top-k finds the *current* heavy hitters,"
        "\nbut only the latent-heat definition yields elephants stable"
        "\nenough to engineer traffic around."
    )


if __name__ == "__main__":
    main()
