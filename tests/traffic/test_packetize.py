"""Unit tests for rate-to-packet conversion."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.flows.matrix import RateMatrix
from repro.flows.records import TimeAxis
from repro.net.checksum import internet_checksum, pseudo_header
from repro.net.prefix import Prefix
from repro.pcap.ethernet import ETHERTYPE_IPV4, decode_ethernet
from repro.pcap.ip import PROTO_UDP, decode_ipv4
from repro.pcap.packet import summarize_record
from repro.pcap.pcapfile import PcapReader
from repro.traffic.distributions import PacketSizeMix
from repro.traffic.packetize import (
    PacketizerConfig,
    packetize_matrix,
    write_pcap,
)


def tiny_matrix(rates, slot_seconds=10.0):
    rates = np.asarray(rates, dtype=float)
    prefixes = [Prefix.parse(f"10.{i}.0.0/16") for i in range(rates.shape[0])]
    axis = TimeAxis(1000.0, slot_seconds, rates.shape[1])
    return RateMatrix(prefixes, axis, rates)


class TestPacketize:
    def test_packets_ordered_in_time(self):
        matrix = tiny_matrix([[50_000.0, 20_000.0], [30_000.0, 0.0]])
        timestamps = [r.timestamp for r in packetize_matrix(matrix)]
        assert timestamps == sorted(timestamps)

    def test_timestamps_inside_axis(self):
        matrix = tiny_matrix([[80_000.0]])
        for record in packetize_matrix(matrix):
            assert 1000.0 <= record.timestamp < 1010.0

    def test_destinations_inside_prefix(self):
        matrix = tiny_matrix([[80_000.0]])
        prefix = matrix.prefixes[0]
        for record in packetize_matrix(matrix):
            summary = summarize_record(record)
            assert prefix.contains_address(summary.destination)

    def test_frames_carry_valid_checksums(self):
        """Every frame is Ethernet II around IPv4 around UDP, with a
        right IPv4 header checksum and a right UDP checksum over the
        pseudo-header — odd and even payload lengths alike."""
        config = PacketizerConfig(
            size_mix=PacketSizeMix(np.array([43, 64, 577, 1500]), np.ones(4))
        )
        matrix = tiny_matrix([[80_000.0], [30_000.0]])
        lengths = set()
        for record in packetize_matrix(matrix, config):
            frame = decode_ethernet(record.data)
            assert frame.ethertype == ETHERTYPE_IPV4
            packet = decode_ipv4(frame.payload)  # verifies its checksum
            assert packet.protocol == PROTO_UDP
            assert packet.source == config.source_address
            datagram = packet.payload
            assert int.from_bytes(datagram[:2], "big") == config.source_port
            assert int.from_bytes(datagram[4:6], "big") == len(datagram)
            assert datagram[6:8] != b"\x00\x00"  # a checksum was sent
            pseudo = pseudo_header(
                packet.source, packet.destination, PROTO_UDP, len(datagram)
            )
            assert internet_checksum(pseudo + datagram) == 0
            lengths.add(len(datagram) % 2)
        assert lengths == {0, 1}

    def test_byte_budget_respected(self):
        rate = 160_000.0  # 200 kB over a 10 s slot
        matrix = tiny_matrix([[rate]])
        total = sum(r.wire_length for r in packetize_matrix(matrix))
        budget = rate * 10.0 / 8.0
        assert total <= budget
        assert total >= budget - 1500  # within one max-size packet

    def test_zero_rate_produces_no_packets(self):
        matrix = tiny_matrix([[0.0, 0.0]])
        assert list(packetize_matrix(matrix)) == []

    def test_deterministic_given_seed(self):
        matrix = tiny_matrix([[100_000.0]])
        config = PacketizerConfig(seed=5)
        first = [
            (r.timestamp, r.data) for r in packetize_matrix(matrix, config)
        ]
        second = [
            (r.timestamp, r.data) for r in packetize_matrix(matrix, config)
        ]
        assert first == second


class TestWritePcap:
    def test_roundtrip_through_file(self, tmp_path):
        matrix = tiny_matrix([[100_000.0], [50_000.0]])
        path = str(tmp_path / "flows.pcap")
        count = write_pcap(matrix, path)
        with PcapReader.open(path) as reader:
            records = list(reader)
        assert len(records) == count
        assert count > 0

    def test_refuses_oversized_realisation(self):
        # 622 Mbit/s for an hour is far beyond the packetiser's remit.
        matrix = tiny_matrix([[6.0e8]], slot_seconds=3600.0)
        with pytest.raises(WorkloadError, match="packets"):
            write_pcap(matrix, "/dev/null")
