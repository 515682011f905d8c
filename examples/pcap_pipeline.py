#!/usr/bin/env python
"""The packet path: synthesise packets, write pcap, aggregate, classify.

This example exercises the same measurement chain as the paper's
monitoring infrastructure:

1. simulate a small link workload (fluid rates),
2. realise it as individual UDP-in-IPv4-in-Ethernet packets,
3. write a classic pcap file and read it back,
4. map each packet to its BGP prefix by longest-prefix match,
5. bin bytes into measurement slots to recover x_i(t),
6. classify elephants on the recovered matrix.

Run:
    python examples/pcap_pipeline.py [/path/to/output.pcap]
"""

import os
import sys
import tempfile

from repro import ClassificationEngine, Feature, Scheme
from repro.flows import aggregate_pcap
from repro.traffic import (
    FlowModelConfig,
    LinkConfig,
    WEST_COAST_PROFILE,
    simulate_link,
    write_pcap,
)


def main() -> None:
    if len(sys.argv) > 1:
        path = sys.argv[1]
        cleanup = False
    else:
        handle, path = tempfile.mkstemp(suffix=".pcap")
        os.close(handle)
        cleanup = True

    # Keep the capture laptop-sized: few flows, a 24-minute horizon and
    # 0.04 % of an OC-12 make ~77k packets, a ~41 MB pcap, written and
    # read back in seconds. The packetiser sends whole packets, so at
    # rates this low a flow's sub-packet remainder in each slot is a
    # visible share of its bytes (~89 % of the rates come back).
    config = LinkConfig(
        name="packet-demo",
        profile=WEST_COAST_PROFILE,
        flow_model=FlowModelConfig(num_flows=400),
        num_slots=24,
        slot_seconds=60.0,
        target_mean_utilization=0.0004,
        seed=7,
    )
    link = simulate_link(config)
    print(f"simulated {link.matrix.num_flows} flows over "
          f"{link.matrix.num_slots} one-minute slots")

    packets = write_pcap(link.matrix, path)
    size_mb = os.path.getsize(path) / 1e6
    print(f"wrote {packets} packets to {path} ({size_mb:.1f} MB)")

    recovered, stats = aggregate_pcap(path, link.table, link.matrix.axis)
    print(f"read back and aggregated: {stats.packets_matched} packets "
          f"matched ({stats.match_rate:.1%}), "
          f"{stats.bytes_matched / 1e6:.1f} MB accounted")

    original_total = link.matrix.rates.sum()
    recovered_total = recovered.rates.sum()
    print(f"rate recovery: {recovered_total / original_total:.2%} of the "
          "fluid matrix (losses are sub-packet residuals)")

    engine = ClassificationEngine(recovered)
    result = engine.run(Scheme.CONSTANT_LOAD, Feature.LATENT_HEAT)
    counts = result.elephants_per_slot()
    print(f"elephants on the recovered matrix: mean {counts.mean():.0f} "
          f"per slot, carrying "
          f"{result.traffic_fraction_per_slot().mean():.0%} of bytes")

    if cleanup:
        os.unlink(path)


if __name__ == "__main__":
    main()
