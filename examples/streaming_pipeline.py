#!/usr/bin/env python
"""The streaming path: classify a capture slot by slot, bounded memory.

This is the pipeline a deployed monitor runs: packets stream in as
columnar batches, the aggregator discovers prefix-flows from the
traffic itself and emits each measurement slot as it completes, and the
online classifier grows with the population — state stays at
O(flows × window) however long the capture is. At the end we check the
streamed verdicts against the batch engine on the recovered matrix:
they are identical, which is the refactor's load-bearing invariant.

Run:
    python examples/streaming_pipeline.py
"""

import os
import tempfile

from repro import ClassificationEngine, Feature, Scheme
from repro.flows import aggregate_pcap
from repro.pipeline import (
    AggregatingSlotSource,
    PcapPacketSource,
    StreamingAggregator,
    StreamingPipeline,
)
from repro.traffic import (
    FlowModelConfig,
    LinkConfig,
    WEST_COAST_PROFILE,
    simulate_link,
    write_pcap,
)


def main() -> None:
    config = LinkConfig(
        name="stream-demo",
        profile=WEST_COAST_PROFILE,
        flow_model=FlowModelConfig(num_flows=300),
        num_slots=18,
        slot_seconds=60.0,
        target_mean_utilization=0.001,
        seed=9,
    )
    link = simulate_link(config)
    handle, path = tempfile.mkstemp(suffix=".pcap")
    os.close(handle)
    packets = write_pcap(link.matrix, path)
    print(f"capture: {packets} packets, "
          f"{os.path.getsize(path) / 1e6:.1f} MB\n")

    # --- the streaming pass: one slot at a time, flows discovered live
    aggregator = StreamingAggregator(link.table, slot_seconds=60.0,
                                     start=link.matrix.axis.start)
    source = AggregatingSlotSource(PcapPacketSource(path), aggregator)
    pipeline = StreamingPipeline(source, scheme=Scheme.CONSTANT_LOAD,
                                 feature=Feature.LATENT_HEAT)
    streamed_masks = {}
    for event in pipeline.events():
        streamed_masks[event.frame.slot] = (
            event.frame.population[:event.frame.num_flows],
            event.verdict.elephant_mask.copy(),
        )
        print(f"slot {event.frame.slot:2d}  flows={event.frame.num_flows:4d}  "
              f"threshold={event.verdict.thresholds.smoothed / 1e3:7.1f} kb/s"
              f"  elephants={event.verdict.num_elephants:3d}")
    series = pipeline.series()
    print(f"\nstreamed {series.counts.size} slots: "
          f"mean {series.mean_count:.0f} elephants carrying "
          f"{series.mean_fraction:.0%} of bytes; classifier state is "
          f"{pipeline.classifier.num_flows} x {pipeline.classifier.window} "
          "floats")

    # --- the batch pass over the same capture must agree exactly
    recovered, _ = aggregate_pcap(path, link.table, link.matrix.axis)
    batch = ClassificationEngine(recovered).run(
        Scheme.CONSTANT_LOAD, Feature.LATENT_HEAT,
    )
    mismatches = 0
    for slot, (population, mask) in streamed_masks.items():
        for row, prefix in enumerate(population):
            batch_row = recovered.index_of(prefix)
            if batch.elephant_mask[batch_row, slot] != mask[row]:
                mismatches += 1
    print(f"streaming vs batch verdicts: {mismatches} mismatches "
          f"across {batch.elephant_mask.size} flow-slots")
    assert mismatches == 0

    os.unlink(path)


if __name__ == "__main__":
    main()
