"""Tests for the array-compiled longest-prefix matcher."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressError, RoutingError
from repro.net import ipv4
from repro.net.prefix import Prefix
from repro.routing.lpm import NO_ROUTE, CompiledLpm, FixedLengthResolver
from repro.routing.ribgen import RibGeneratorConfig, generate_rib


def compiled(*texts):
    return CompiledLpm([Prefix.parse(text) for text in texts])


class TestCompiledLpm:
    def test_simple_match(self):
        lpm = compiled("10.0.0.0/8", "192.168.0.0/16")
        rows = lpm.lookup(
            np.array(
                [
                    ipv4.parse_ipv4("10.1.2.3"),
                    ipv4.parse_ipv4("192.168.5.5"),
                    ipv4.parse_ipv4("172.16.0.1"),
                ]
            )
        )
        assert lpm.prefixes[rows[0]] == Prefix.parse("10.0.0.0/8")
        assert lpm.prefixes[rows[1]] == Prefix.parse("192.168.0.0/16")
        assert rows[2] == NO_ROUTE

    def test_longest_match_wins_in_nest(self):
        lpm = compiled("10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24")
        inner = lpm.lookup(np.array([ipv4.parse_ipv4("10.1.2.9")]))[0]
        middle = lpm.lookup(np.array([ipv4.parse_ipv4("10.1.9.9")]))[0]
        outer = lpm.lookup(np.array([ipv4.parse_ipv4("10.9.9.9")]))[0]
        assert lpm.prefixes[inner] == Prefix.parse("10.1.2.0/24")
        assert lpm.prefixes[middle] == Prefix.parse("10.1.0.0/16")
        assert lpm.prefixes[outer] == Prefix.parse("10.0.0.0/8")

    def test_address_after_nested_child_falls_back_to_parent(self):
        # The segment *after* a child closes must reopen the parent.
        lpm = compiled("10.0.0.0/8", "10.0.0.0/16")
        row = lpm.lookup(np.array([ipv4.parse_ipv4("10.200.0.1")]))[0]
        assert lpm.prefixes[row] == Prefix.parse("10.0.0.0/8")

    def test_default_route_covers_everything(self):
        lpm = compiled("0.0.0.0/0", "10.0.0.0/8")
        rows = lpm.lookup(
            np.array([0, ipv4.MAX_ADDRESS, ipv4.parse_ipv4("10.0.0.1")])
        )
        assert lpm.prefixes[rows[0]] == Prefix.parse("0.0.0.0/0")
        assert lpm.prefixes[rows[1]] == Prefix.parse("0.0.0.0/0")
        assert lpm.prefixes[rows[2]] == Prefix.parse("10.0.0.0/8")

    def test_slash32_host_route(self):
        lpm = compiled("192.0.2.0/24", "192.0.2.7/32")
        host = lpm.lookup(np.array([ipv4.parse_ipv4("192.0.2.7")]))[0]
        neighbour = lpm.lookup(np.array([ipv4.parse_ipv4("192.0.2.8")]))[0]
        assert lpm.prefixes[host] == Prefix.parse("192.0.2.7/32")
        assert lpm.prefixes[neighbour] == Prefix.parse("192.0.2.0/24")

    def test_duplicate_prefixes_rejected(self):
        with pytest.raises(RoutingError):
            compiled("10.0.0.0/8", "10.0.0.0/8")

    def test_matches_radix_trie_on_synthetic_rib(self):
        table = generate_rib(
            RibGeneratorConfig(
                num_routes=800,
                num_slash8=15,
                num_stub=500,
                seed=41,
            )
        )
        lpm = CompiledLpm.from_table(table)
        rng = np.random.default_rng(9)
        addresses = rng.integers(0, 1 << 32, size=5000, dtype=np.int64)
        rows = lpm.lookup(addresses)
        for address, row in zip(addresses.tolist(), rows.tolist()):
            expected = table.resolve_prefix(address)
            got = None if row == NO_ROUTE else lpm.prefixes[row]
            assert got == expected

    def test_lookup_one(self):
        lpm = compiled("10.0.0.0/8")
        found = lpm.lookup_one(ipv4.parse_ipv4("10.5.5.5"))
        assert found == Prefix.parse("10.0.0.0/8")
        assert lpm.lookup_one(ipv4.parse_ipv4("11.0.0.1")) is None


class TestFixedLengthResolver:
    def test_masks_to_length(self):
        resolver = FixedLengthResolver(16)
        rows = resolver.lookup(
            np.array(
                [
                    ipv4.parse_ipv4("10.1.2.3"),
                    ipv4.parse_ipv4("10.1.200.200"),
                    ipv4.parse_ipv4("10.2.0.1"),
                ]
            )
        )
        assert rows[0] == rows[1]
        assert rows[0] != rows[2]
        assert resolver.prefixes[rows[0]] == Prefix.parse("10.1.0.0/16")
        assert resolver.prefixes[rows[2]] == Prefix.parse("10.2.0.0/16")

    def test_rows_stable_across_batches(self):
        resolver = FixedLengthResolver(24)
        first = resolver.lookup(np.array([ipv4.parse_ipv4("10.0.0.1")]))
        resolver.lookup(np.array([ipv4.parse_ipv4("172.16.0.1")]))
        again = resolver.lookup(np.array([ipv4.parse_ipv4("10.0.0.200")]))
        assert first[0] == again[0]
        assert len(resolver) == 2

    def test_bad_length_rejected(self):
        with pytest.raises(RoutingError):
            FixedLengthResolver(33)

    @pytest.mark.parametrize("bad", [-1, 1 << 32, -(1 << 40)])
    def test_rejected_batch_changes_nothing(self, bad):
        resolver = FixedLengthResolver(24)
        resolver.lookup(np.array([ipv4.parse_ipv4("10.0.0.1")]))
        fresh = ipv4.parse_ipv4("172.16.0.1")
        with pytest.raises(AddressError):
            resolver.lookup(np.array([fresh, bad, fresh + 256]))
        assert len(resolver) == 1
        assert resolver.prefixes == [Prefix.parse("10.0.0.0/24")]
        rows = resolver.lookup(np.array([fresh + 256, fresh]))
        assert rows.tolist() == [2, 1]
        assert resolver.prefixes[1] == Prefix.parse("172.16.0.0/24")

    def test_empty_batch(self):
        resolver = FixedLengthResolver(24)
        rows = resolver.lookup(np.empty(0, dtype=np.int64))
        assert rows.size == 0 and rows.dtype == np.int64
        assert len(resolver) == 0

    @settings(max_examples=80, deadline=None)
    @given(
        length=st.sampled_from([0, 1, 16, 24, 32]),
        addresses=st.lists(
            st.one_of(
                st.integers(0, ipv4.MAX_ADDRESS),
                st.integers(0x0A000000, 0x0A0003FF),
                st.sampled_from([0, ipv4.MAX_ADDRESS]),
            ),
            max_size=60,
        ),
        cuts=st.lists(st.integers(0, 60), max_size=6),
    )
    def test_numbering_rule_over_batch_splits(self, length, addresses, cuts):
        """First batch wins, sorted within the batch that discovers."""
        resolver = FixedLengthResolver(length)
        row_of: dict[int, int] = {}
        bounds = sorted({0, len(addresses), *cuts})
        for lo, hi in zip(bounds, bounds[1:]):
            batch = addresses[lo:hi]
            networks = [
                ipv4.network_address(address, length) for address in batch
            ]
            for network in sorted(set(networks) - set(row_of)):
                row_of[network] = len(row_of)
            rows = resolver.lookup(np.array(batch, dtype=np.int64))
            assert rows.tolist() == [row_of[network] for network in networks]
        assert resolver.prefixes == [
            Prefix(network, length) for network in row_of
        ]

    def test_host_flows_cost_memory_per_flow_not_per_address(self):
        rng = np.random.default_rng(3)
        hosts = np.unique(rng.integers(0, 1 << 32, 100_000, dtype=np.int64))
        resolver = FixedLengthResolver(32)
        tracemalloc.start()
        try:
            rows = resolver.lookup(hosts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(rows, np.arange(hosts.size))
        assert len(resolver) == hosts.size
        # ~100 B of Prefix per flow plus the index; a table addressed
        # by the 32 network bits would be gigabytes
        assert peak < 64 * 1024 * 1024
        again = resolver.lookup(hosts[::-1])
        assert np.array_equal(again, np.arange(hosts.size)[::-1])
