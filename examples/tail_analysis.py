#!/usr/bin/env python
"""Inside the "aest" scheme: where does the power law start?

Takes one measurement slot of a simulated link, renders the flow
bandwidth distribution's log-log complementary distribution (LLCD) at
three dyadic aggregation levels, and marks the detected tail onset —
the value the paper uses as the elephant threshold, with the aest
tail-index estimate.

Run:
    python examples/tail_analysis.py
"""

import numpy as np

from repro.experiments import line_chart
from repro.stats import aest, aggregate_sums, llcd_points
from repro.stats.aest import AestConfig
from repro.traffic import west_coast_link


def main() -> None:
    link = west_coast_link(scale=0.15)
    slot = link.matrix.num_slots // 2  # a mid-day slot
    rates = link.matrix.slot_rates(slot)
    active = rates[rates > 0]
    print(f"slot {slot}: {active.size} active flows, "
          f"{active.sum() / 1e6:.0f} Mb/s total")

    result = aest(active, config=AestConfig(tail_fraction=0.16))
    print(f"\naest:  alpha = {result.alpha:.2f}  "
          f"tail onset = {result.tail_onset / 1e3:.0f} kb/s  "
          f"({result.num_accepted} probes accepted)")
    above = int((rates > result.tail_onset).sum())
    share = rates[rates > result.tail_onset].sum() / rates.sum()
    print(f"flows above onset: {above} "
          f"({above / active.size:.1%} of active) carrying {share:.0%} "
          "of bytes")

    series = {}
    for level in (1, 2, 4):
        aggregated = aggregate_sums(active, level)
        log_x, log_p = llcd_points(aggregated)
        series[f"m={level}"] = (log_x.tolist(), log_p.tolist())
    onset_x = float(np.log10(result.tail_onset))
    lowest = min(min(y) for _, y in series.values())
    series["onset"] = ([onset_x, onset_x], [lowest, 0.0])

    print()
    print(line_chart(
        series,
        title=("LLCD of slot flow bandwidths at dyadic aggregation "
               "levels (vertical line: detected tail onset)"),
        y_label="log10 P(X > x)",
        x_label="log10 bandwidth (b/s)",
        width=72, height=20,
    ))
    print("\nReading the chart: in the power-law region the three curves "
          "are parallel,\nhorizontally shifted by log10(2)/alpha per "
          "doubling of the aggregation level;\nthe onset is the first "
          "point where that scaling is witnessed.")


if __name__ == "__main__":
    main()
