"""IPv4 header encoding and decoding (RFC 791).

Only what a measurement pipeline needs: fixed-header fields, options as
opaque bytes, header checksum generation and verification. Fragmentation
is represented (flags/offset fields) but reassembly is out of scope --
flow accounting operates on individual packets, as the paper's
monitoring infrastructure did.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.errors import PacketDecodeError
from repro.net.checksum import internet_checksum, verify_checksum

#: IP protocol number of UDP, the transport synthetic captures carry.
PROTO_UDP = 17

#: Minimum (option-free) IPv4 header length in bytes.
MIN_HEADER_LENGTH = 20

_FIXED = struct.Struct("!BBHHHBBHII")


@dataclass(frozen=True)
class Ipv4Packet:
    """A parsed IPv4 packet.

    Addresses are integers (see :mod:`repro.net.ipv4`). ``payload`` holds
    the transport segment; ``options`` the raw option bytes, if any.
    """

    source: int
    destination: int
    protocol: int
    payload: bytes
    identification: int = 0
    ttl: int = 64
    dscp: int = 0
    dont_fragment: bool = True
    more_fragments: bool = False
    fragment_offset: int = 0
    options: bytes = field(default=b"")

    def __post_init__(self) -> None:
        if not 0 <= self.protocol <= 0xFF:
            raise PacketDecodeError(f"protocol {self.protocol} out of range")
        if not 0 <= self.ttl <= 0xFF:
            raise PacketDecodeError(f"ttl {self.ttl} out of range")
        if not 0 <= self.identification <= 0xFFFF:
            raise PacketDecodeError("identification out of range")
        offset = self.fragment_offset
        if offset % 8 or not 0 <= offset < 1 << 16:
            raise PacketDecodeError("fragment offset must be a multiple of 8")
        if len(self.options) % 4:
            raise PacketDecodeError("options must be padded to 32-bit words")
        if len(self.options) > 40:
            raise PacketDecodeError("options exceed maximum length")

    @property
    def header_length(self) -> int:
        """Header length in bytes, including options."""
        return MIN_HEADER_LENGTH + len(self.options)

    @property
    def total_length(self) -> int:
        """Total packet length in bytes (header plus payload)."""
        return self.header_length + len(self.payload)

    def encode(self) -> bytes:
        """Serialise with a correct header checksum."""
        ihl_words = self.header_length // 4
        version_ihl = (4 << 4) | ihl_words
        flags = (int(self.dont_fragment) << 1) | int(self.more_fragments)
        flags_fragment = (flags << 13) | (self.fragment_offset // 8)
        fixed = _FIXED.pack(
            version_ihl,
            self.dscp,
            self.total_length,
            self.identification,
            flags_fragment,
            self.ttl,
            self.protocol,
            0,
            self.source,
            self.destination,
        )
        header = fixed + self.options
        checksum = internet_checksum(header)
        header = header[:10] + struct.pack("!H", checksum) + header[12:]
        return header + self.payload


def decode_ipv4(data: bytes, verify: bool = True) -> Ipv4Packet:
    """Parse ``data`` as an IPv4 packet.

    When ``verify`` is true the header checksum must be correct.
    Trailing link-layer padding beyond ``total_length`` is trimmed,
    which matters for small packets in Ethernet captures.
    """
    if len(data) < MIN_HEADER_LENGTH:
        raise PacketDecodeError(f"IPv4 header too short: {len(data)} bytes")
    (
        version_ihl,
        dscp,
        total_length,
        identification,
        flags_fragment,
        ttl,
        protocol,
        _checksum,
        source,
        destination,
    ) = _FIXED.unpack_from(data)
    version = version_ihl >> 4
    if version != 4:
        raise PacketDecodeError(f"not an IPv4 packet (version {version})")
    header_length = (version_ihl & 0x0F) * 4
    if header_length < MIN_HEADER_LENGTH:
        raise PacketDecodeError(f"bad IHL: {header_length} bytes")
    if len(data) < header_length:
        raise PacketDecodeError("truncated IPv4 options")
    if total_length < header_length:
        raise PacketDecodeError("total length smaller than header length")
    if len(data) < total_length:
        raise PacketDecodeError("truncated IPv4 payload")
    if verify and not verify_checksum(data[:header_length]):
        raise PacketDecodeError("IPv4 header checksum mismatch")
    flags = flags_fragment >> 13
    return Ipv4Packet(
        source=source,
        destination=destination,
        protocol=protocol,
        payload=data[header_length:total_length],
        identification=identification,
        ttl=ttl,
        dscp=dscp,
        dont_fragment=bool(flags & 0x2),
        more_fragments=bool(flags & 0x1),
        fragment_offset=(flags_fragment & 0x1FFF) * 8,
        options=data[MIN_HEADER_LENGTH:header_length],
    )
