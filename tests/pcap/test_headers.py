"""Unit tests for the Ethernet, IPv4 and UDP codecs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PacketDecodeError
from repro.net import ipv4 as ip4
from repro.net.checksum import (
    internet_checksum,
    ones_complement_sum,
    pseudo_header,
    verify_checksum,
)
from repro.pcap.ethernet import (
    ETHERTYPE_IPV4,
    HEADER_LENGTH,
    EthernetFrame,
    decode_ethernet,
)
from repro.pcap.ip import PROTO_UDP, Ipv4Packet, decode_ipv4
from repro.pcap.transport import UdpDatagram

SRC = ip4.parse_ipv4("10.0.0.1")
DST = ip4.parse_ipv4("192.0.2.7")


class TestEthernet:
    def test_roundtrip(self):
        frame = EthernetFrame(
            destination=b"\x02" * 6,
            source=b"\x04" * 6,
            ethertype=ETHERTYPE_IPV4,
            payload=b"payload",
        )
        parsed = decode_ethernet(frame.encode())
        assert parsed == frame

    def test_short_frame_rejected(self):
        with pytest.raises(PacketDecodeError, match="short"):
            decode_ethernet(b"\x00" * (HEADER_LENGTH - 1))

    def test_vlan_rejected(self):
        frame = EthernetFrame(
            destination=b"\x02" * 6,
            source=b"\x04" * 6,
            ethertype=0x8100,
            payload=b"",
        )
        with pytest.raises(PacketDecodeError, match="802.1Q"):
            decode_ethernet(frame.encode())

    def test_bad_mac_length_rejected(self):
        with pytest.raises(PacketDecodeError):
            EthernetFrame(
                destination=b"\x02" * 5,
                source=b"\x04" * 6,
                ethertype=ETHERTYPE_IPV4,
                payload=b"",
            )

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"source": b"\x04" * 7}, "source MAC"),
            ({"ethertype": 0x10000}, "ethertype 0x10000"),
        ],
    )
    def test_bad_source_or_ethertype_rejected(self, fields, message):
        arguments = dict(
            destination=b"\x02" * 6,
            source=b"\x04" * 6,
            ethertype=ETHERTYPE_IPV4,
            payload=b"",
        )
        with pytest.raises(PacketDecodeError, match=message):
            EthernetFrame(**{**arguments, **fields})

    @given(
        st.binary(min_size=0, max_size=64),
        st.integers(min_value=0, max_value=0xFFFF).filter(
            lambda t: t != 0x8100
        ),
    )
    def test_roundtrip_property(self, payload, ethertype):
        frame = EthernetFrame(b"\x01" * 6, b"\x02" * 6, ethertype, payload)
        assert decode_ethernet(frame.encode()) == frame


class TestIpv4:
    def test_roundtrip(self):
        packet = Ipv4Packet(
            source=SRC,
            destination=DST,
            protocol=PROTO_UDP,
            payload=b"data",
            identification=42,
            ttl=17,
        )
        parsed = decode_ipv4(packet.encode())
        assert parsed == packet

    def test_header_checksum_is_valid(self):
        packet = Ipv4Packet(SRC, DST, PROTO_UDP, b"xyz")
        encoded = packet.encode()
        assert verify_checksum(encoded[:20])

    def test_corrupted_checksum_rejected(self):
        encoded = bytearray(Ipv4Packet(SRC, DST, PROTO_UDP, b"x").encode())
        encoded[10] ^= 0xFF
        with pytest.raises(PacketDecodeError, match="checksum"):
            decode_ipv4(bytes(encoded))

    def test_checksum_check_can_be_skipped(self):
        encoded = bytearray(Ipv4Packet(SRC, DST, PROTO_UDP, b"x").encode())
        encoded[10] ^= 0xFF
        parsed = decode_ipv4(bytes(encoded), verify=False)
        assert parsed.source == SRC

    def test_trailing_padding_trimmed(self):
        packet = Ipv4Packet(SRC, DST, PROTO_UDP, b"abc")
        padded = packet.encode() + b"\x00" * 7  # Ethernet minimum padding
        assert decode_ipv4(padded).payload == b"abc"

    def test_options_roundtrip(self):
        packet = Ipv4Packet(
            SRC, DST, PROTO_UDP, b"p", options=b"\x01\x01\x01\x01"
        )
        parsed = decode_ipv4(packet.encode())
        assert parsed.options == b"\x01\x01\x01\x01"
        assert parsed.header_length == 24

    def test_short_buffer_rejected(self):
        with pytest.raises(PacketDecodeError, match="short"):
            decode_ipv4(b"\x45" + b"\x00" * 10)

    def test_non_ipv4_version_rejected(self):
        encoded = bytearray(Ipv4Packet(SRC, DST, PROTO_UDP, b"").encode())
        encoded[0] = (6 << 4) | 5
        with pytest.raises(PacketDecodeError, match="version"):
            decode_ipv4(bytes(encoded))

    def test_unpadded_options_rejected(self):
        with pytest.raises(PacketDecodeError, match="options"):
            Ipv4Packet(SRC, DST, PROTO_UDP, b"", options=b"\x01")

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"protocol": 0x100}, "protocol 256"),
            ({"ttl": -1}, "ttl -1"),
            ({"identification": 0x10000}, "identification"),
            ({"fragment_offset": 12}, "multiple of 8"),
            ({"fragment_offset": 1 << 16}, "multiple of 8"),
            ({"options": b"\x01" * 44}, "maximum length"),
        ],
    )
    def test_out_of_range_field_rejected(self, fields, message):
        arguments = dict(
            source=SRC, destination=DST, protocol=PROTO_UDP, payload=b""
        )
        with pytest.raises(PacketDecodeError, match=message):
            Ipv4Packet(**{**arguments, **fields})

    @pytest.mark.parametrize(
        "damage, message",
        [
            # IHL of 4 words: a header shorter than the fixed 20 bytes
            (lambda data: bytes([0x44]) + data[1:], "bad IHL"),
            # IHL of 6 words on a buffer that ends after 20 bytes
            (
                lambda data: bytes([0x46]) + data[1:20],
                "truncated IPv4 options",
            ),
            # total length 19, under the 20-byte header
            (lambda data: data[:2] + b"\x00\x13" + data[4:], "smaller than"),
            # the payload the total length promises is cut short
            (lambda data: data[:-1], "truncated IPv4 payload"),
        ],
    )
    def test_inconsistent_lengths_rejected(self, damage, message):
        encoded = Ipv4Packet(SRC, DST, PROTO_UDP, b"abcd").encode()
        with pytest.raises(PacketDecodeError, match=message):
            decode_ipv4(damage(encoded), verify=False)

    def test_fragment_fields_roundtrip(self):
        packet = Ipv4Packet(
            SRC,
            DST,
            PROTO_UDP,
            b"frag",
            dont_fragment=False,
            more_fragments=True,
            fragment_offset=64,
        )
        parsed = decode_ipv4(packet.encode())
        assert parsed.more_fragments and not parsed.dont_fragment
        assert parsed.fragment_offset == 64

    @settings(max_examples=50, deadline=None)
    @given(
        source=st.integers(min_value=0, max_value=ip4.MAX_ADDRESS),
        destination=st.integers(min_value=0, max_value=ip4.MAX_ADDRESS),
        payload=st.binary(min_size=0, max_size=100),
        ttl=st.integers(min_value=0, max_value=255),
        ident=st.integers(min_value=0, max_value=0xFFFF),
    )
    def test_roundtrip_property(
        self, source, destination, payload, ttl, ident
    ):
        packet = Ipv4Packet(
            source,
            destination,
            PROTO_UDP,
            payload,
            ttl=ttl,
            identification=ident,
        )
        assert decode_ipv4(packet.encode()) == packet


def udp_sum(encoded, source=SRC, destination=DST):
    """The checksum over a datagram and its pseudo-header: 0 when the
    datagram's checksum field is right."""
    pseudo = pseudo_header(source, destination, PROTO_UDP, len(encoded))
    return internet_checksum(pseudo + encoded)


class TestUdp:
    def test_header_fields_and_checksum(self):
        encoded = UdpDatagram(1234, 80, b"GET /").encode(SRC, DST)
        assert encoded[:6] == bytes.fromhex("04d20050000d")
        assert encoded[8:] == b"GET /"
        assert udp_sum(encoded) == 0
        assert udp_sum(encoded, destination=DST + 1) != 0

    def test_zero_checksum_is_sent_as_all_ones(self):
        """RFC 768: a computed 0 goes on the wire as 0xFFFF, since 0
        means "no checksum"; the datagram still verifies."""
        blank = UdpDatagram(1, 2, b"\x00\x00").encode(SRC, DST)
        pseudo = pseudo_header(SRC, DST, PROTO_UDP, len(blank))
        partial = ones_complement_sum(pseudo + blank[:6] + b"\x00\x00")
        filler = (0xFFFF - partial).to_bytes(2, "big")
        encoded = UdpDatagram(1, 2, filler).encode(SRC, DST)
        assert encoded[6:8] == b"\xff\xff"
        assert udp_sum(encoded) == 0

    def test_length_field(self):
        datagram = UdpDatagram(1, 2, b"12345")
        assert datagram.length == 13

    def test_bad_port_rejected(self):
        with pytest.raises(PacketDecodeError):
            UdpDatagram(70000, 80, b"")
