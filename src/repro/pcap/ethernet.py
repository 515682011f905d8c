"""Ethernet II frame encoding and decoding."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import PacketDecodeError

#: EtherType for IPv4.
ETHERTYPE_IPV4 = 0x0800

#: Length of an EUI-48 (MAC) address in bytes.
MAC_LENGTH = 6
#: Header length of an untagged Ethernet II frame.
HEADER_LENGTH = 14

_HEADER = struct.Struct("!6s6sH")


@dataclass(frozen=True)
class EthernetFrame:
    """An Ethernet II frame: addresses, EtherType, payload."""

    destination: bytes
    source: bytes
    ethertype: int
    payload: bytes

    def __post_init__(self) -> None:
        if len(self.destination) != MAC_LENGTH:
            raise PacketDecodeError("destination MAC must be 6 bytes")
        if len(self.source) != MAC_LENGTH:
            raise PacketDecodeError("source MAC must be 6 bytes")
        if not 0 <= self.ethertype <= 0xFFFF:
            raise PacketDecodeError(
                f"ethertype {self.ethertype:#x} out of range"
            )

    def encode(self) -> bytes:
        """Serialise to wire format (header followed by payload)."""
        header = _HEADER.pack(self.destination, self.source, self.ethertype)
        return header + self.payload


def decode_ethernet(data: bytes) -> EthernetFrame:
    """Parse the first ``HEADER_LENGTH`` bytes of ``data`` as Ethernet II.

    Raises :class:`~repro.errors.PacketDecodeError` on short input.
    802.1Q-tagged frames are rejected explicitly (the backbone links we
    model are untagged point-to-point links).
    """
    if len(data) < HEADER_LENGTH:
        raise PacketDecodeError(
            f"frame too short for Ethernet header: {len(data)} bytes"
        )
    destination, source, ethertype = _HEADER.unpack_from(data)
    if ethertype == 0x8100:
        raise PacketDecodeError("802.1Q tagged frames are not supported")
    return EthernetFrame(
        destination=destination,
        source=source,
        ethertype=ethertype,
        payload=data[HEADER_LENGTH:],
    )
