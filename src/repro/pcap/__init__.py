"""Packet capture substrate: classic pcap files and protocol codecs."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "ethernet": ("ETHERTYPE_IPV4", "EthernetFrame", "decode_ethernet"),
        "ip": (
            "PROTO_ICMP",
            "PROTO_TCP",
            "PROTO_UDP",
            "Ipv4Packet",
            "decode_ipv4",
        ),
        "packet": (
            "PacketSummary",
            "build_frame",
            "build_tcp_packet",
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
        "transport": ("TcpSegment", "UdpDatagram", "decode_tcp", "decode_udp"),
    },
)
