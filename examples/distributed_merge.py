#!/usr/bin/env python
"""Multi-monitor elephants: shard, summarize, merge, classify.

Three monitors each see a third of a link's packets (round-robin, as a
per-packet load balancer would deal them) and track flows in a small
Space-Saving table. Each monitor exports one compact SlotSummary per
measurement slot; the collector sums the tables prefix-wise,
re-truncates to K with the overflow conserved in the residual row, and
classifies the merged stream with the ordinary online classifier.
The punchline: the merged verdicts recover the elephants a single
all-seeing monitor finds, from a fraction of the state.

Run:
    python examples/distributed_merge.py
"""

import numpy as np

from repro.distributed import Collector, SlotSummary, StridedPacketSource
from repro.pipeline import (
    AggregatingSlotSource,
    StreamingAggregator,
    StreamingPipeline,
    make_backend,
)
from repro.pipeline.sources import ArrayPacketSource
from repro.routing.lpm import FixedLengthResolver

SLOT_SECONDS = 10.0
NUM_MONITORS = 3
CAPACITY = 12
#: Packets per batch a tap hands over.
CHUNK = 2048


def synthesize_link(seed=7, count=30_000):
    """Five persistent heavy prefixes over a sea of mice."""
    rng = np.random.default_rng(seed)
    stamps = np.sort(rng.uniform(0, 10 * SLOT_SECONDS, count))
    heavy = rng.random(count) < 0.55
    flow = np.where(
        heavy, rng.integers(0, 5, count), rng.integers(5, 90, count)
    )
    dests = (10 << 24) + flow * (1 << 16) + 1
    sizes = np.where(heavy, 1500, 80)
    return stamps, dests, sizes


def main() -> None:
    stamps, dests, sizes = synthesize_link()
    link = ArrayPacketSource(stamps, dests, sizes, chunk_packets=CHUNK)

    # --- the reference: one monitor that sees everything, exactly ----
    single = StreamingPipeline(
        AggregatingSlotSource(
            link,
            StreamingAggregator(
                FixedLengthResolver(16), slot_seconds=SLOT_SECONDS, start=0.0
            ),
        )
    )
    truth = [frozenset(event.elephant_prefixes) for event in single.events()]

    # --- the fleet: each monitor sees 1/3 of every flow's packets ----
    runs = []
    for offset in range(NUM_MONITORS):
        tap = StridedPacketSource(link, NUM_MONITORS, offset)
        aggregator = StreamingAggregator(
            FixedLengthResolver(16),
            slot_seconds=SLOT_SECONDS,
            start=0.0,
            backend=make_backend("space-saving", capacity=CAPACITY),
        )
        runs.append(
            [
                SlotSummary.from_frame(
                    frame, SLOT_SECONDS, monitor=f"monitor-{offset}"
                )
                for frame in AggregatingSlotSource(tap, aggregator).slots()
            ]
        )
        wire = sum(len(s.to_bytes()) for s in runs[-1])
        print(
            f"monitor-{offset}: {len(runs[-1])} slots, "
            f"{wire} summary bytes on the wire"
        )

    # --- the collector: merge, re-truncate, classify -----------------
    collector = Collector(runs, k=CAPACITY)
    hits = misses = 0
    for slot, event in enumerate(collector.events()):
        merged = frozenset(event.elephant_prefixes)
        hits += len(merged & truth[slot])
        misses += len(truth[slot] - merged)
        print(f"slot {slot}: merged sees {sorted(str(p) for p in merged)}")
    recall = hits / (hits + misses) if hits + misses else 1.0
    series = collector.series()
    print(f"\nmerged recall vs the all-seeing monitor: {recall:.3f}")
    print(
        "mean residual (untracked) traffic share: "
        f"{series.mean_residual_fraction:.3f}"
    )


if __name__ == "__main__":
    main()
