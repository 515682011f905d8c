"""Unit tests for packet-to-flow aggregation."""

import pytest

from repro.errors import ClassificationError
from repro.flows.aggregate import FlowAggregator
from repro.flows.records import TimeAxis
from repro.net import ipv4
from repro.net.prefix import Prefix
from repro.pcap.packet import PacketSummary
from repro.routing.aspath import AsPath, AsTier, AutonomousSystem
from repro.routing.rib import Route, RoutingTable


def make_table(*texts):
    routes = []
    for index, text in enumerate(texts):
        asn = AutonomousSystem(65000 + index, AsTier.STUB)
        routes.append(Route(Prefix.parse(text), AsPath((asn.number,)), asn))
    return RoutingTable(routes)


def packet(ts, destination, size=1000):
    return PacketSummary(
        timestamp=ts,
        source=ipv4.parse_ipv4("198.51.100.1"),
        destination=ipv4.parse_ipv4(destination),
        protocol=6,
        wire_bytes=size,
    )


class TestFlowAggregator:
    def test_bytes_to_bandwidth(self):
        table = make_table("10.0.0.0/8")
        axis = TimeAxis(0.0, 100.0, 2)
        aggregator = FlowAggregator(table, axis)
        aggregator.add(packet(10.0, "10.1.1.1", size=1000))
        aggregator.add(packet(150.0, "10.2.2.2", size=500))
        matrix = aggregator.to_rate_matrix()
        # slot 0: 1000 bytes over 100 s = 80 bit/s
        assert matrix.rates[0, 0] == pytest.approx(80.0)
        assert matrix.rates[0, 1] == pytest.approx(40.0)

    def test_longest_prefix_split(self):
        table = make_table("10.0.0.0/8", "10.1.0.0/16")
        axis = TimeAxis(0.0, 100.0, 1)
        aggregator = FlowAggregator(table, axis)
        aggregator.add(packet(0.0, "10.1.2.3"))  # /16
        aggregator.add(packet(0.0, "10.2.2.2"))  # /8
        matrix = aggregator.to_rate_matrix()
        by_prefix = {
            str(p): matrix.rates[i, 0] for i, p in enumerate(matrix.prefixes)
        }
        assert by_prefix["10.1.0.0/16"] == pytest.approx(80.0)
        assert by_prefix["10.0.0.0/8"] == pytest.approx(80.0)

    def test_unrouted_packets_counted_and_dropped(self):
        table = make_table("10.0.0.0/8")
        aggregator = FlowAggregator(table, TimeAxis(0.0, 100.0, 1))
        assert not aggregator.add(packet(0.0, "192.0.2.1"))
        assert aggregator.stats.packets_unrouted == 1
        assert aggregator.stats.match_rate == 0.0

    def test_out_of_axis_packets_counted_and_dropped(self):
        table = make_table("10.0.0.0/8")
        aggregator = FlowAggregator(table, TimeAxis(0.0, 100.0, 1))
        assert not aggregator.add(packet(500.0, "10.0.0.1"))
        assert aggregator.stats.packets_outside_axis == 1

    def test_add_all_and_stats(self):
        table = make_table("10.0.0.0/8")
        aggregator = FlowAggregator(table, TimeAxis(0.0, 100.0, 1))
        matched = aggregator.add_all(
            [
                packet(0.0, "10.0.0.1", 100),
                packet(1.0, "10.0.0.2", 200),
                packet(2.0, "172.16.0.1", 300),
            ]
        )
        assert matched == 2
        assert aggregator.stats.packets_seen == 3
        assert aggregator.stats.bytes_matched == 300
        assert aggregator.stats.match_rate == pytest.approx(2 / 3)

    def test_include_all_routes_gives_zero_rows(self):
        table = make_table("10.0.0.0/8", "172.16.0.0/12")
        aggregator = FlowAggregator(table, TimeAxis(0.0, 100.0, 1))
        aggregator.add(packet(0.0, "10.0.0.1"))
        matrix = aggregator.to_rate_matrix(include_all_routes=True)
        assert matrix.num_flows == 2
        idle_row = matrix.index_of(Prefix.parse("172.16.0.0/12"))
        assert matrix.rates[idle_row].sum() == 0.0

    def test_empty_aggregation_rejected(self):
        table = make_table("10.0.0.0/8")
        aggregator = FlowAggregator(table, TimeAxis(0.0, 100.0, 1))
        with pytest.raises(ClassificationError):
            aggregator.to_rate_matrix()

    def test_flow_records(self):
        table = make_table("10.0.0.0/8")
        aggregator = FlowAggregator(table, TimeAxis(0.0, 100.0, 1))
        aggregator.add(packet(1.0, "10.0.0.1", 100))
        aggregator.add(packet(2.0, "10.0.0.2", 300))
        records = aggregator.flow_records()
        assert len(records) == 1
        assert records[0].bytes_total == 400
        assert records[0].packets == 2
