"""Unit tests for the Prefix flow-key type."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AddressError
from repro.net import ipv4
from repro.net.prefix import DEFAULT_ROUTE, Prefix, PrefixColumns


def prefixes(max_length: int = 32):
    """Hypothesis strategy for valid prefixes."""
    return st.builds(
        lambda addr, length: Prefix.from_host(addr, length),
        st.integers(min_value=0, max_value=ipv4.MAX_ADDRESS),
        st.integers(min_value=0, max_value=max_length),
    )


class TestConstruction:
    def test_parse_with_length(self):
        prefix = Prefix.parse("192.0.2.0/24")
        assert prefix.network == ipv4.parse_ipv4("192.0.2.0")
        assert prefix.length == 24

    def test_parse_bare_address_is_host_route(self):
        assert Prefix.parse("10.0.0.1").length == 32

    def test_parse_rejects_host_bits(self):
        with pytest.raises(AddressError):
            Prefix.parse("192.0.2.1/24")

    def test_parse_rejects_bad_length(self):
        with pytest.raises(AddressError):
            Prefix.parse("192.0.2.0/33")
        with pytest.raises(AddressError):
            Prefix.parse("192.0.2.0/abc")

    def test_constructor_rejects_host_bits(self):
        with pytest.raises(AddressError):
            Prefix(ipv4.parse_ipv4("10.0.0.1"), 24)

    def test_from_host_zeroes_host_bits(self):
        prefix = Prefix.from_host(ipv4.parse_ipv4("10.1.2.3"), 16)
        assert str(prefix) == "10.1.0.0/16"

    def test_str_roundtrip(self):
        text = "172.16.0.0/12"
        assert str(Prefix.parse(text)) == text

    @given(prefixes())
    def test_parse_str_roundtrip(self, prefix):
        assert Prefix.parse(str(prefix)) == prefix


class TestOrderingHashing:
    def test_equal_prefixes_hash_equal(self):
        assert hash(Prefix.parse("10.0.0.0/8")) == hash(
            Prefix.from_host(ipv4.parse_ipv4("10.1.2.3"), 8)
        )

    def test_sort_by_network_then_length(self):
        items = [
            Prefix.parse("10.0.0.0/16"),
            Prefix.parse("10.0.0.0/8"),
            Prefix.parse("9.0.0.0/8"),
        ]
        ordered = sorted(items)
        assert [str(p) for p in ordered] == [
            "9.0.0.0/8",
            "10.0.0.0/8",
            "10.0.0.0/16",
        ]


class TestContainment:
    def test_contains_address(self):
        prefix = Prefix.parse("192.0.2.0/24")
        assert prefix.contains_address(ipv4.parse_ipv4("192.0.2.200"))
        assert not prefix.contains_address(ipv4.parse_ipv4("192.0.3.0"))

    def test_contains_prefix(self):
        big = Prefix.parse("10.0.0.0/8")
        small = Prefix.parse("10.20.0.0/16")
        assert big.contains(small)
        assert not small.contains(big)

    def test_contains_self(self):
        prefix = Prefix.parse("10.0.0.0/8")
        assert prefix.contains(prefix)

    def test_default_route_contains_everything(self):
        assert DEFAULT_ROUTE.contains(Prefix.parse("203.0.113.0/24"))
        assert DEFAULT_ROUTE.contains_address(0)

    def test_overlaps_is_symmetric(self):
        a = Prefix.parse("10.0.0.0/8")
        b = Prefix.parse("10.1.0.0/16")
        c = Prefix.parse("11.0.0.0/8")
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c) and not c.overlaps(a)

    @given(prefixes(max_length=31))
    def test_subnets_partition_parent(self, prefix):
        left, right = prefix.subnets()
        assert prefix.contains(left) and prefix.contains(right)
        assert not left.overlaps(right)
        halves = left.num_addresses + right.num_addresses
        assert halves == prefix.num_addresses


class TestDerivedProperties:
    def test_num_addresses(self):
        assert Prefix.parse("10.0.0.0/8").num_addresses == 1 << 24
        assert Prefix.parse("10.0.0.1/32").num_addresses == 1

    def test_netmask_and_broadcast(self):
        prefix = Prefix.parse("192.0.2.0/24")
        assert prefix.netmask == 0xFFFFFF00
        assert prefix.broadcast == ipv4.parse_ipv4("192.0.2.255")

    def test_supernet_default_one_bit(self):
        assert str(Prefix.parse("10.128.0.0/9").supernet()) == "10.0.0.0/8"

    def test_supernet_to_length(self):
        assert str(Prefix.parse("10.1.2.0/24").supernet(8)) == "10.0.0.0/8"

    def test_supernet_rejects_longer(self):
        with pytest.raises(AddressError):
            Prefix.parse("10.0.0.0/8").supernet(16)

    def test_subnets_of_host_route_rejected(self):
        with pytest.raises(AddressError):
            list(Prefix.parse("10.0.0.1/32").subnets())

    def test_bit_at_delegates(self):
        prefix = Prefix.parse("128.0.0.0/1")
        assert prefix.bit_at(0) == 1


class TestConstructionChecks:
    """The three checks, done once and inline, keep their messages."""

    @pytest.mark.parametrize(
        "network, length, message",
        [
            (0, 33, "prefix length 33 out of range 0..32"),
            (0, -1, "prefix length -1 out of range 0..32"),
            (1 << 32, 32, f"network {1 << 32} out of IPv4 range"),
            (-1, 32, "network -1 out of IPv4 range"),
            (0x0A010203, 16, "10.1.2.3/16 has host bits set"),
            (1, 0, "0.0.0.1/0 has host bits set"),
        ],
    )
    def test_constructor_messages(self, network, length, message):
        with pytest.raises(AddressError) as caught:
            Prefix(network, length)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("10.1.2.3/16", "'10.1.2.3/16' has host bits set"),
            ("10.0.0.0/33", "prefix length 33 out of range 0..32"),
            ("10.0.0.0/x", "bad prefix length in '10.0.0.0/x'"),
            ("10.0.0.256", "octet 256 out of range in '10.0.0.256'"),
        ],
    )
    def test_parse_messages(self, text, message):
        with pytest.raises(AddressError) as caught:
            Prefix.parse(text)
        assert str(caught.value) == message

    def test_boundary_values_accepted(self):
        assert Prefix(0xFFFFFFFF, 32).broadcast == 0xFFFFFFFF
        assert Prefix(0, 0) == DEFAULT_ROUTE
        assert Prefix.parse("255.255.255.255").length == 32


class TestPrefixColumns:
    def wanted(self, count=5):
        return [Prefix.parse(f"10.{i}.0.0/16") for i in range(count)]

    def test_equals_any_sequence_of_the_same_prefixes(self):
        wanted = self.wanted()
        columns = PrefixColumns.of(wanted)
        assert columns == wanted
        assert columns == tuple(wanted)
        assert columns == PrefixColumns.of(wanted)
        assert wanted == columns  # reflected
        assert columns != wanted[:-1]
        assert columns != wanted[::-1]
        assert columns != PrefixColumns.of(wanted[::-1])
        assert columns != "10.0.0.0/16"
        assert PrefixColumns() == []
        assert PrefixColumns.of(columns) is columns

    def test_rows_slices_and_iteration(self):
        wanted = self.wanted()
        columns = PrefixColumns.of(wanted)
        assert len(columns) == 5
        assert columns[0] == wanted[0] and columns[-1] == wanted[-1]
        assert columns[np.int64(3)] == wanted[3]
        assert columns[1:4] == wanted[1:4]
        assert isinstance(columns[1:4], PrefixColumns)
        assert columns[::-2] == wanted[::-2]
        assert list(columns) == wanted
        assert list(reversed(columns)) == wanted[::-1]
        assert wanted[2] in columns
        assert columns.index(wanted[3]) == 3
        for row in (5, -6):
            with pytest.raises(IndexError):
                columns[row]

    def test_columns_and_keys(self):
        columns = PrefixColumns([10 << 24, 0, 10 << 24], [8, 0, 16])
        assert columns.network.dtype == columns.length.dtype == np.int64
        assert columns.keys().tolist() == [
            (10 << 24) << 6 | 8,
            0,
            (10 << 24) << 6 | 16,
        ]
        # keys sort as Prefix sorts: network first, then length
        assert np.argsort(columns.keys()).tolist() == [1, 0, 2]
        assert sorted(columns) == [columns[1], columns[0], columns[2]]

    def test_extend_across_several_growths(self):
        columns = PrefixColumns()
        reference = []
        earlier = columns.network
        for step in range(1, 40):
            networks = (np.arange(step) + 1000 * step) << 8
            columns.extend(networks, np.full(step, 24))
            reference += [Prefix(int(n), 24) for n in networks]
            assert len(columns) == len(reference)
        assert columns == reference
        assert earlier.size == 0  # a view taken earlier is not disturbed
        columns.extend([], [])
        assert len(columns) == len(reference)
        with pytest.raises(ValueError):
            columns.extend([1, 2], [24])
        assert columns == reference

    def test_a_slice_does_not_alias_its_parent(self):
        columns = PrefixColumns.of(self.wanted())
        part = columns[:2]
        part.extend([0], [0])
        assert len(columns) == 5 and columns[2] == self.wanted()[2]
        assert part == self.wanted()[:2] + [DEFAULT_ROUTE]

    def test_boxing_validates(self):
        columns = PrefixColumns([10 << 24, 1, 0, 1 << 32], [8, 16, 33, 32])
        assert columns.valid().tolist() == [True, False, False, False]
        assert columns[0] == Prefix.parse("10.0.0.0/8")
        for row in (1, 2, 3):
            with pytest.raises(AddressError):
                columns[row]
        with pytest.raises(AddressError):
            list(columns)

    @given(st.lists(prefixes(), max_size=30))
    def test_round_trip(self, boxed):
        columns = PrefixColumns.of(boxed)
        assert columns == boxed and list(columns) == boxed
        assert columns.valid().all()
        assert [key >> 6 for key in columns.keys().tolist()] == [
            prefix.network for prefix in boxed
        ]
