"""Whole-packet helpers: build Ethernet/IPv4/UDP frames, summarise them.

The aggregation layer needs three facts per packet: when it arrived,
where it goes and how big it was on the wire. :class:`PacketSummary`
is that view, extracted one record at a time from full frames or from
truncated captures (backbone monitors typically snap packets after the
transport header, and so do we) — the scalar oracle the vectorized
capture scan is tested against. The builders write the synthetic
captures: UDP over IPv4 in Ethernet II.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PacketDecodeError
from repro.pcap.ethernet import (
    ETHERTYPE_IPV4,
    EthernetFrame,
    decode_ethernet,
)
from repro.pcap.ip import PROTO_UDP, Ipv4Packet, decode_ipv4
from repro.pcap.pcapfile import (
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW_IP,
    CaptureRecord,
)
from repro.pcap.transport import UdpDatagram

#: Default MACs for synthesised frames (locally administered).
DEFAULT_SRC_MAC = b"\x02\x00\x00\x00\x00\x01"
DEFAULT_DST_MAC = b"\x02\x00\x00\x00\x00\x02"


@dataclass(frozen=True)
class PacketSummary:
    """The per-packet facts flow accounting needs."""

    timestamp: float
    destination: int
    wire_bytes: int


def build_frame(
    ip_packet: Ipv4Packet,
    src_mac: bytes = DEFAULT_SRC_MAC,
    dst_mac: bytes = DEFAULT_DST_MAC,
) -> bytes:
    """Encapsulate an IPv4 packet in an Ethernet II frame."""
    frame = EthernetFrame(
        destination=dst_mac,
        source=src_mac,
        ethertype=ETHERTYPE_IPV4,
        payload=ip_packet.encode(),
    )
    return frame.encode()


def build_udp_packet(
    source_ip: int,
    destination_ip: int,
    source_port: int,
    destination_port: int,
    payload: bytes,
    ttl: int = 64,
    identification: int = 0,
) -> Ipv4Packet:
    """Build an IPv4 packet carrying a UDP datagram."""
    datagram = UdpDatagram(source_port, destination_port, payload)
    return Ipv4Packet(
        source=source_ip,
        destination=destination_ip,
        protocol=PROTO_UDP,
        payload=datagram.encode(source_ip, destination_ip),
        ttl=ttl,
        identification=identification,
    )


def summarize_record(
    record: CaptureRecord, linktype: int = LINKTYPE_ETHERNET
) -> PacketSummary:
    """Extract a :class:`PacketSummary` from a captured record.

    Works on truncated captures as long as the IPv4 fixed header is
    present; checksum verification is skipped for truncated packets
    because the checksummed region may be incomplete.
    """
    if linktype == LINKTYPE_ETHERNET:
        frame = decode_ethernet(record.data)
        if frame.ethertype != ETHERTYPE_IPV4:
            raise PacketDecodeError(
                f"not an IPv4 frame (ethertype {frame.ethertype:#06x})"
            )
        ip_bytes = frame.payload
        link_overhead = len(record.data) - len(frame.payload)
    elif linktype == LINKTYPE_RAW_IP:
        ip_bytes = record.data
        link_overhead = 0
    else:
        raise PacketDecodeError(f"unsupported linktype {linktype}")

    truncated = record.wire_length > record.captured_length
    ip_packet = decode_ipv4(
        _pad_for_decode(ip_bytes, truncated), verify=not truncated
    )
    wire_bytes = (
        record.wire_length
        if truncated
        else link_overhead + ip_packet.total_length
    )
    return PacketSummary(
        timestamp=record.timestamp,
        destination=ip_packet.destination,
        wire_bytes=wire_bytes,
    )


def _pad_for_decode(ip_bytes: bytes, truncated: bool) -> bytes:
    """Pad a truncated IP packet so the declared length parses.

    The decoder needs ``total_length`` bytes present; for snapped
    captures we pad with zeros, which only affects the (ignored) payload.
    """
    if not truncated or len(ip_bytes) < 4:
        return ip_bytes
    declared = (ip_bytes[2] << 8) | ip_bytes[3]
    if declared > len(ip_bytes):
        return ip_bytes + b"\x00" * (declared - len(ip_bytes))
    return ip_bytes
