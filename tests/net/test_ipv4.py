"""Unit tests for IPv4 address primitives."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AddressError
from repro.net import ipv4


class TestParseFormat:
    def test_parse_basic(self):
        assert ipv4.parse_ipv4("192.0.2.1") == 0xC0000201

    def test_parse_zero(self):
        assert ipv4.parse_ipv4("0.0.0.0") == 0

    def test_parse_broadcast(self):
        assert ipv4.parse_ipv4("255.255.255.255") == ipv4.MAX_ADDRESS

    def test_parse_leading_zeros_allowed(self):
        assert ipv4.parse_ipv4("010.0.0.1") == ipv4.parse_ipv4("10.0.0.1")

    def test_parse_strips_whitespace(self):
        assert ipv4.parse_ipv4("  10.1.2.3 ") == ipv4.parse_ipv4("10.1.2.3")

    @pytest.mark.parametrize("bad", [
        "10.0.0", "10.0.0.0.0", "10.0.0.256", "a.b.c.d", "10.0.0.-1",
        "", "10..0.1", "1e1.0.0.1",
        # digits to str.isdigit(), not to int()
        "1\u00b27.0.0.1", "10.0.0.\u00b9",
        # digits to int() too, but not ASCII
        "\uff11\uff10.0.0.1",
    ])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(AddressError):
            ipv4.parse_ipv4(bad)

    def test_format_basic(self):
        assert ipv4.format_ipv4(0xC0000201) == "192.0.2.1"

    @pytest.mark.parametrize("bad", [-1, 1 << 32])
    def test_format_rejects_out_of_range(self, bad):
        with pytest.raises(AddressError):
            ipv4.format_ipv4(bad)

    @given(st.integers(min_value=0, max_value=ipv4.MAX_ADDRESS))
    def test_roundtrip(self, address):
        assert ipv4.parse_ipv4(ipv4.format_ipv4(address)) == address


class TestMasks:
    def test_netmask_24(self):
        assert ipv4.netmask(24) == 0xFFFFFF00

    def test_netmask_0(self):
        assert ipv4.netmask(0) == 0

    def test_netmask_32(self):
        assert ipv4.netmask(32) == ipv4.MAX_ADDRESS

    def test_hostmask_complements_netmask(self):
        for length in range(33):
            assert ipv4.netmask(length) ^ ipv4.hostmask(length) == \
                ipv4.MAX_ADDRESS

    @pytest.mark.parametrize("bad", [-1, 33])
    def test_netmask_rejects_bad_length(self, bad):
        with pytest.raises(AddressError):
            ipv4.netmask(bad)

    def test_network_address(self):
        address = ipv4.parse_ipv4("10.1.2.3")
        assert ipv4.network_address(address, 8) == ipv4.parse_ipv4("10.0.0.0")

    def test_broadcast_address(self):
        address = ipv4.parse_ipv4("10.1.2.3")
        assert (ipv4.broadcast_address(address, 8)
                == ipv4.parse_ipv4("10.255.255.255"))


class TestBits:
    def test_bit_at_msb(self):
        assert ipv4.bit_at(1 << 31, 0) == 1
        assert ipv4.bit_at(1 << 31, 1) == 0

    def test_bit_at_lsb(self):
        assert ipv4.bit_at(1, 31) == 1

    @pytest.mark.parametrize("bad", [-1, 32])
    def test_bit_at_rejects_bad_position(self, bad):
        with pytest.raises(AddressError):
            ipv4.bit_at(0, bad)


class TestRandomHost:
    def test_slash32_is_identity(self, rng):
        address = ipv4.parse_ipv4("10.0.0.1")
        assert ipv4.random_host_in(address, 32, rng) == address

    def test_draw_stays_inside_prefix(self, rng):
        network = ipv4.parse_ipv4("172.16.0.0")
        for _ in range(50):
            host = ipv4.random_host_in(network, 12, rng)
            assert ipv4.network_address(host, 12) == network
