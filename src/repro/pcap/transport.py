"""UDP datagram encoding with the pseudo-header checksum (RFC 768).

Synthetic captures carry every packet as UDP over IPv4; the
measurement path never looks past the IPv4 header, so there is no
transport decoder.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import PacketDecodeError
from repro.net.checksum import internet_checksum, pseudo_header
from repro.pcap.ip import PROTO_UDP

_UDP_HEADER = struct.Struct("!HHHH")


def _check_port(port: int, name: str) -> None:
    if not 0 <= port <= 0xFFFF:
        raise PacketDecodeError(f"{name} port {port} out of range")


@dataclass(frozen=True)
class UdpDatagram:
    """A UDP datagram (RFC 768)."""

    source_port: int
    destination_port: int
    payload: bytes

    def __post_init__(self) -> None:
        _check_port(self.source_port, "source")
        _check_port(self.destination_port, "destination")

    @property
    def length(self) -> int:
        """Total datagram length (8-byte header plus payload)."""
        return _UDP_HEADER.size + len(self.payload)

    def encode(self, source_ip: int, destination_ip: int) -> bytes:
        """Serialise with the pseudo-header checksum filled in."""
        header = _UDP_HEADER.pack(
            self.source_port, self.destination_port, self.length, 0
        )
        pseudo = pseudo_header(
            source_ip, destination_ip, PROTO_UDP, self.length
        )
        checksum = internet_checksum(pseudo + header + self.payload)
        if checksum == 0:
            checksum = 0xFFFF  # RFC 768: zero means "no checksum"
        header = header[:6] + struct.pack("!H", checksum)
        return header + self.payload
