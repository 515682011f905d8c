"""Integration: fluid rates → packets → pcap → aggregation → rates.

The paper's measurement chain starts at packets; ours usually starts at
fluid rates. This test closes the loop: realising a rate matrix as
packets and re-aggregating them must recover the original bandwidths
(within one packet per flow-slot of quantisation).
"""

import numpy as np
import pytest

from repro.flows.aggregate import FlowAggregator, aggregate_pcap
from repro.flows.matrix import RateMatrix
from repro.flows.records import TimeAxis
from repro.net.prefix import Prefix
from repro.pcap.packet import summarize_record
from repro.pcap.pcapfile import PcapReader
from repro.routing.aspath import AsPath, AsTier, AutonomousSystem
from repro.routing.rib import Route, RoutingTable
from repro.traffic.packetize import PacketizerConfig, write_pcap


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    rng = np.random.default_rng(55)
    prefixes = [Prefix.parse(f"10.{i}.0.0/16") for i in range(12)]
    routes = [
        Route(prefix, AsPath((65000 + i,)),
              AutonomousSystem(65000 + i, AsTier.STUB))
        for i, prefix in enumerate(prefixes)
    ]
    table = RoutingTable(routes)
    axis = TimeAxis(0.0, 60.0, 6)
    rates = rng.uniform(0.0, 4e5, size=(12, 6))
    rates[rng.random(rates.shape) < 0.3] = 0.0  # idle flow-slots
    original = RateMatrix(prefixes, axis, rates)
    path = str(tmp_path_factory.mktemp("pcap") / "link.pcap")
    write_pcap(original, path, PacketizerConfig(seed=1))
    recovered, stats = aggregate_pcap(path, table, axis)
    return original, recovered, stats


class TestPcapPipeline:
    def test_every_packet_matched(self, pipeline):
        _, _, stats = pipeline
        assert stats.packets_seen > 0
        assert stats.match_rate == 1.0
        assert stats.packets_unrouted == 0

    def test_recovered_rates_close_to_original(self, pipeline):
        original, recovered, _ = pipeline
        for prefix in original.prefixes:
            source_row = original.index_of(prefix)
            for slot in range(original.num_slots):
                true_rate = original.rates[source_row, slot]
                if prefix in set(recovered.prefixes):
                    got = recovered.rates[recovered.index_of(prefix), slot]
                else:
                    got = 0.0
                # One max-size packet of slack per flow-slot, plus the
                # sub-minimum residual that cannot be packetised.
                slack = (1500 + 576) * 8.0 / original.axis.slot_seconds
                assert got <= true_rate + 1e-6
                assert got >= max(0.0, true_rate - slack)

    def test_total_bytes_conserved_within_slack(self, pipeline):
        original, recovered, stats = pipeline
        original_bytes = (original.rates.sum()
                          * original.axis.slot_seconds / 8.0)
        assert stats.bytes_matched <= original_bytes
        assert stats.bytes_matched >= 0.9 * original_bytes


def per_packet_reference(path, table, axis):
    """The packet-object loop: strict PcapReader + FlowAggregator.add."""
    aggregator = FlowAggregator(table, axis)
    with PcapReader.open(path) as reader:
        for record in reader:
            aggregator.add(summarize_record(record, reader.linktype))
    return aggregator.to_rate_matrix(), aggregator.stats


class TestVectorizedEquivalence:
    """The streaming wrapper must recover what the packet loop does."""

    #: capture name -> (aggregation axis, routed prefixes out of 8). The
    #: capture always spans slots 0..5 of a 60 s grid over 8 prefixes;
    #: "clipped" aggregates a 3-slot window of it through a table that
    #: lacks two of the prefixes, so it carries packets before
    #: ``axis.start``, at/after ``axis.end`` and unrouted ones.
    CAPTURES = {
        "full": (TimeAxis(0.0, 60.0, 6), 8),
        "clipped": (TimeAxis(60.0, 60.0, 3), 6),
    }

    @pytest.fixture(scope="class", params=sorted(CAPTURES))
    def both_paths(self, request, tmp_path_factory):
        axis, routed = self.CAPTURES[request.param]
        rng = np.random.default_rng(99)
        prefixes = [Prefix.parse(f"10.{i}.0.0/16") for i in range(8)]
        routes = [
            Route(prefix, AsPath((65000 + i,)),
                  AutonomousSystem(65000 + i, AsTier.STUB))
            for i, prefix in enumerate(prefixes[:routed])
        ]
        table = RoutingTable(routes)
        rates = rng.uniform(0.0, 3e5, size=(8, 6))
        matrix = RateMatrix(prefixes, TimeAxis(0.0, 60.0, 6), rates)
        path = str(tmp_path_factory.mktemp("vec") / "link.pcap")
        write_pcap(matrix, path, PacketizerConfig(seed=6))
        per_packet = per_packet_reference(path, table, axis)
        streamed = aggregate_pcap(path, table, axis)
        chunked = aggregate_pcap(path, table, axis, chunk_packets=1000)
        if request.param == "clipped":
            stats = per_packet[1]
            assert stats.packets_unrouted > 0
            assert stats.packets_outside_axis > 0
            assert stats.packets_matched > 0
        return per_packet, streamed, chunked

    def test_matrices_identical(self, both_paths):
        (slow, _), (fast, _), (chunked, _) = both_paths
        assert slow.prefixes == fast.prefixes == chunked.prefixes
        assert slow.axis == fast.axis == chunked.axis
        assert np.allclose(slow.rates, fast.rates)
        assert np.array_equal(fast.rates, chunked.rates)

    def test_stats_identical(self, both_paths):
        (_, slow), (_, fast), (_, chunked) = both_paths
        assert slow == fast == chunked
