"""Packet capture substrate: classic pcap files, and the Ethernet,
IPv4 and UDP codecs synthetic captures are written and checked with."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "ethernet": ("ETHERTYPE_IPV4", "EthernetFrame", "decode_ethernet"),
        "ip": ("PROTO_UDP", "Ipv4Packet", "decode_ipv4"),
        "packet": (
            "PacketSummary",
            "build_frame",
            "build_udp_packet",
            "summarize_record",
        ),
        "pcapfile": (
            "LINKTYPE_ETHERNET",
            "LINKTYPE_RAW_IP",
            "CaptureRecord",
            "PcapReader",
            "PcapWriter",
        ),
        "transport": ("UdpDatagram",),
    },
)
