"""Tests for the array-compiled longest-prefix matcher."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressError, RoutingError
from repro.net import ipv4
from repro.net.prefix import Prefix, PrefixColumns
from repro.routing.lpm import NO_ROUTE, CompiledLpm, FixedLengthResolver
from repro.routing.radix import RadixTree
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


def sweep_flatten(prefixes):
    """The scalar stack sweep the vector flatten replaced (the oracle).

    Prefixes sorted by (network, length) visit every parent before its
    children; a stack of open intervals tracks the deepest cover.
    """
    bounds, owners, stack = [0], [NO_ROUTE], []

    def emit(position, owner):
        if bounds[-1] == position:
            owners[-1] = owner
        elif owners[-1] != owner:
            bounds.append(position)
            owners.append(owner)

    for row, prefix in enumerate(prefixes):
        while stack and stack[-1][0] <= prefix.network:
            closed_end, _ = stack.pop()
            emit(closed_end, stack[-1][1] if stack else NO_ROUTE)
        emit(prefix.network, row)
        stack.append((prefix.broadcast + 1, row))
    while stack:
        closed_end, _ = stack.pop()
        emit(closed_end, stack[-1][1] if stack else NO_ROUTE)
    return bounds, owners


#: Shapes a random draw rarely hits: the default route, a prefix that
#: ends at 2**32, a /8 over 256 root buckets, hosts, adjacent siblings.
LANDMARKS = [
    "0.0.0.0/0",
    "128.0.0.0/1",
    "255.0.0.0/8",
    "255.255.255.255/32",
    "0.0.0.0/32",
    "10.0.0.0/8",
    "10.1.0.0/16",
    "10.1.0.0/17",
    "10.1.128.0/17",
    "10.1.128.0/24",
    "10.1.129.0/24",
    "10.1.129.7/32",
    "10.1.129.8/32",
]


def laminar_families():
    """Any set of CIDR prefixes is laminar; bias towards deep nests."""
    nested = st.builds(
        Prefix.from_host,
        st.integers(0x0A000000, 0x0A03FFFF),
        st.integers(8, 32),
    )
    anywhere = st.builds(
        Prefix.from_host,
        st.integers(0, ipv4.MAX_ADDRESS),
        st.integers(0, 32),
    )
    landmark = st.sampled_from(LANDMARKS).map(Prefix.parse)
    return st.lists(
        st.one_of(nested, anywhere, landmark), max_size=40, unique=True
    )


class TestCompiledLpmAgainstScalarOracles:
    @settings(max_examples=150, deadline=None)
    @given(family=laminar_families(), extra=st.lists(st.integers(0, 1 << 32)))
    def test_flatten_and_root_lookup(self, family, extra):
        lpm = CompiledLpm(family)
        assert lpm.prefixes == sorted(family)
        bounds, owners = sweep_flatten(sorted(family))
        assert lpm._bounds.tolist() == bounds
        assert lpm._owners.tolist() == owners
        tree = RadixTree()
        for prefix in family:
            tree.insert(prefix, None)
        probes = {0, ipv4.MAX_ADDRESS, *extra}
        for bound in bounds:
            probes.update((bound - 1, bound, bound + 1))
        probes = sorted(p for p in probes if 0 <= p <= ipv4.MAX_ADDRESS)
        rows = lpm.lookup(np.array(probes, dtype=np.int64))
        for address, row in zip(probes, rows.tolist()):
            got = None if row == NO_ROUTE else lpm.prefixes[row]
            assert got == tree.lookup_prefix(address), address

    def test_single_prefix_and_empty_tables(self):
        lonely = compiled("192.0.2.0/24")
        inside = ipv4.parse_ipv4("192.0.2.0")
        rows = lonely.lookup(np.array([inside - 1, inside, inside + 256]))
        assert rows.tolist() == [NO_ROUTE, 0, NO_ROUTE]
        empty = CompiledLpm([])
        assert len(empty) == 0
        assert empty.lookup(np.array([0, ipv4.MAX_ADDRESS])).tolist() == [
            NO_ROUTE,
            NO_ROUTE,
        ]
        assert empty.lookup(np.empty(0, dtype=np.int64)).size == 0

    def test_deep_root_bucket(self):
        # 256 /24s and 256 hosts under one /16: the bucket's descent
        # runs nine steps where a neighbouring bucket needs none
        family = [Prefix.parse("10.7.0.0/16"), Prefix.parse("10.8.0.0/16")]
        base = ipv4.parse_ipv4("10.7.0.0")
        family += [Prefix(base + (i << 8), 24) for i in range(256)]
        family += [Prefix(base + (i << 8) + 9, 32) for i in range(256)]
        lpm = CompiledLpm(family)
        probes = base + np.arange(1 << 17, dtype=np.int64)
        rows = lpm.lookup(probes)
        next_door = probes >= base + (1 << 16)
        hosts = ~next_door & (probes & 0xFF == 9)
        length = np.where(next_door, 16, np.where(hosts, 32, 24))
        assert np.array_equal(lpm.prefixes.length[rows], length)
        host_bits = 32 - length
        assert np.array_equal(
            lpm.prefixes.network[rows], probes >> host_bits << host_bits
        )

    def test_compiles_from_columns_and_rejects_malformed_ones(self):
        columns = PrefixColumns([10 << 24, 0], [8, 0])
        lpm = CompiledLpm(columns)
        assert lpm.prefixes == [Prefix(0, 0), Prefix(10 << 24, 8)]
        for network, length in ((1, 24), (0, 33), (-256, 24), (1 << 32, 32)):
            with pytest.raises(AddressError):
                CompiledLpm(PrefixColumns([network], [length]))


@pytest.mark.parametrize(
    "resolver",
    [FixedLengthResolver(24), CompiledLpm([Prefix.parse("0.0.0.0/0")])],
    ids=["fixed-length", "compiled-lpm"],
)
@pytest.mark.parametrize("bad", [-1, 1 << 32, -(1 << 40), 1 << 40])
def test_address_outside_ipv4_is_refused_not_unrouted(resolver, bad):
    """An int64 that is not an address (a flow CSV's integer column is
    not range-checked) raises the same error from either resolver."""
    with pytest.raises(AddressError, match=f"address {bad} out of IPv4"):
        resolver.lookup(np.array([167772161, bad]))


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
