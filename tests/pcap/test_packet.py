"""Unit tests for whole-packet building and summarisation."""

import pytest

from repro.errors import PacketDecodeError
from repro.net import ipv4 as ip4
from repro.pcap.ethernet import decode_ethernet
from repro.pcap.ip import PROTO_UDP, decode_ipv4
from repro.pcap.packet import (
    PacketSummary,
    build_frame,
    build_udp_packet,
    summarize_record,
)
from repro.pcap.pcapfile import (
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW_IP,
    CaptureRecord,
)

SRC = ip4.parse_ipv4("10.0.0.1")
DST = ip4.parse_ipv4("192.0.2.7")


class TestBuilders:
    def test_udp_packet_parses(self):
        packet = build_udp_packet(SRC, DST, 4000, 80, b"payload")
        parsed = decode_ipv4(packet.encode())
        assert parsed.protocol == PROTO_UDP
        assert parsed.destination == DST

    def test_frame_wraps_ip(self):
        packet = build_udp_packet(SRC, DST, 1, 2, b"x")
        frame = decode_ethernet(build_frame(packet))
        inner = decode_ipv4(frame.payload)
        assert inner.destination == DST


class TestSummarize:
    def test_full_ethernet_capture(self):
        packet = build_udp_packet(SRC, DST, 4000, 80, b"12345")
        data = build_frame(packet)
        record = CaptureRecord(timestamp=10.5, data=data)
        summary = summarize_record(record, LINKTYPE_ETHERNET)
        assert summary == PacketSummary(
            timestamp=10.5, destination=DST, wire_bytes=len(data)
        )

    def test_raw_ip_capture(self):
        packet = build_udp_packet(SRC, DST, 4000, 80, b"12345")
        record = CaptureRecord(timestamp=1.0, data=packet.encode())
        summary = summarize_record(record, LINKTYPE_RAW_IP)
        assert summary.destination == DST
        assert summary.wire_bytes == packet.total_length

    def test_truncated_capture_uses_wire_length(self):
        packet = build_udp_packet(SRC, DST, 4000, 80, b"x" * 400)
        data = build_frame(packet)
        record = CaptureRecord(
            timestamp=1.0, data=data[:60], original_length=len(data)
        )
        summary = summarize_record(record, LINKTYPE_ETHERNET)
        assert summary.wire_bytes == len(data)
        assert summary.destination == DST

    def test_non_ip_frame_rejected(self):
        frame = bytearray(build_frame(build_udp_packet(SRC, DST, 1, 2, b"")))
        frame[12:14] = b"\x08\x06"  # ARP
        record = CaptureRecord(timestamp=0.0, data=bytes(frame))
        with pytest.raises(PacketDecodeError, match="IPv4"):
            summarize_record(record, LINKTYPE_ETHERNET)

    def test_unknown_linktype_rejected(self):
        record = CaptureRecord(timestamp=0.0, data=b"")
        with pytest.raises(PacketDecodeError, match="linktype"):
            summarize_record(record, linktype=999)
