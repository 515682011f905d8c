"""Unit and property tests for the BGP routing table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import longest_match
from repro.errors import RoutingError
from repro.net import ipv4
from repro.net.prefix import Prefix
from repro.routing.aspath import AsPath, AsTier, AutonomousSystem
from repro.routing.rib import Route, RoutingTable


def route(
    text: str, origin: int = 65001, tier: AsTier = AsTier.STUB
) -> Route:
    return Route(
        prefix=Prefix.parse(text),
        as_path=AsPath((1239, origin)) if origin != 1239 else AsPath((1239,)),
        origin_as=AutonomousSystem(origin, tier),
    )


def table_of(*texts: str) -> RoutingTable:
    """One route per prefix, origin AS 65000 + its position."""
    return RoutingTable(
        route(text, 65000 + index) for index, text in enumerate(texts)
    )


def resolved(table: RoutingTable, address: str) -> str | None:
    prefix = table.resolve_prefix(ipv4.parse_ipv4(address))
    return None if prefix is None else str(prefix)


class TestRoute:
    def test_origin_consistency_enforced(self):
        with pytest.raises(RoutingError):
            Route(
                prefix=Prefix.parse("10.0.0.0/8"),
                as_path=AsPath((1239, 65001)),
                origin_as=AutonomousSystem(65002, AsTier.STUB),
            )

    def test_properties(self):
        entry = route("10.0.0.0/8", tier=AsTier.TIER1)
        assert entry.prefix_length == 8
        assert entry.origin_tier is AsTier.TIER1


class TestResolve:
    def test_empty_table_resolves_nothing(self):
        assert RoutingTable().resolve(ipv4.parse_ipv4("10.0.0.1")) is None

    def test_single_prefix(self):
        table = table_of("10.0.0.0/8")
        assert resolved(table, "10.1.2.3") == "10.0.0.0/8"
        assert resolved(table, "11.0.0.1") is None

    def test_longest_match_wins(self):
        table = table_of("10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24")
        found = table.resolve(ipv4.parse_ipv4("10.1.2.3"))
        assert str(found.prefix) == "10.1.2.0/24"
        assert found.origin_as.number == 65002
        assert resolved(table, "10.1.3.1") == "10.1.0.0/16"
        assert resolved(table, "10.2.0.1") == "10.0.0.0/8"

    def test_default_route_matches_every_address(self):
        table = table_of("0.0.0.0/0")
        assert table.resolve(0).origin_as.number == 65000
        assert table.resolve(ipv4.MAX_ADDRESS).origin_as.number == 65000

    def test_sibling_split(self):
        table = table_of("10.0.0.0/16", "10.128.0.0/16")
        assert resolved(table, "10.0.0.1") == "10.0.0.0/16"
        assert resolved(table, "10.128.0.1") == "10.128.0.0/16"
        assert resolved(table, "10.64.0.1") is None

    def test_shorter_prefix_added_after_longer(self):
        table = table_of("10.1.0.0/16", "10.0.0.0/8")
        assert resolved(table, "10.2.0.1") == "10.0.0.0/8"
        assert resolved(table, "10.1.0.1") == "10.1.0.0/16"

    def test_host_route(self):
        table = table_of("10.0.0.0/8", "10.0.0.1/32")
        assert resolved(table, "10.0.0.1") == "10.0.0.1/32"
        assert resolved(table, "10.0.0.2") == "10.0.0.0/8"

    def test_resolve_prefix(self):
        table = RoutingTable([route("10.0.0.0/8")])
        found = table.resolve_prefix(ipv4.parse_ipv4("10.9.9.9"))
        assert found == Prefix.parse("10.0.0.0/8")


class TestExactOperations:
    def test_reannounce_replaces_route(self):
        table = RoutingTable([route("10.0.0.0/8", 65001)])
        table.add(route("10.0.0.0/8", 65002))
        assert len(table) == 1
        found = table.route_for(Prefix.parse("10.0.0.0/8"))
        assert found.origin_as.number == 65002

    def test_len_counts_routes(self):
        assert len(RoutingTable()) == 0
        assert len(table_of("10.0.0.0/16", "10.128.0.0/16")) == 2

    def test_route_for_is_exact(self):
        table = table_of("10.0.0.0/8")
        assert table.route_for(Prefix.parse("10.0.0.0/8")).prefix_length == 8
        assert table.route_for(Prefix.parse("10.0.0.0/16")) is None

    def test_contains_is_exact(self):
        table = table_of("10.0.0.0/8", "10.64.0.0/16", "10.128.0.0/16")
        assert Prefix.parse("10.64.0.0/16") in table
        assert Prefix.parse("10.0.0.0/9") not in table
        assert Prefix.parse("10.64.0.0/17") not in table

    def test_iteration_in_prefix_order(self):
        table = table_of(
            "192.168.0.0/16", "10.128.0.0/16", "10.0.0.0/8", "10.0.0.0/16"
        )
        expected = [
            "10.0.0.0/8",
            "10.0.0.0/16",
            "10.128.0.0/16",
            "192.168.0.0/16",
        ]
        assert [str(prefix) for prefix in table.prefixes()] == expected
        assert [str(entry.prefix) for entry in table] == expected


class TestReports:
    def test_prefix_length_histogram(self):
        table = RoutingTable(
            [
                route("10.0.0.0/8"),
                route("11.0.0.0/8"),
                route("192.168.0.0/16"),
            ]
        )
        assert table.prefix_length_histogram() == {8: 2, 16: 1}

    def test_routes_by_tier(self):
        table = RoutingTable(
            [
                route("10.0.0.0/8", 65001, AsTier.STUB),
                route("11.0.0.0/8", 7018, AsTier.TIER2),
            ]
        )
        groups = table.routes_by_tier()
        assert len(groups[AsTier.STUB]) == 1
        assert len(groups[AsTier.TIER2]) == 1
        assert len(groups[AsTier.TIER1]) == 0


# ---------------------------------------------------------------------------
# property-based: the table agrees with a linear scan on random tables
# ---------------------------------------------------------------------------

prefixes = st.builds(
    Prefix.from_host,
    st.integers(min_value=0, max_value=ipv4.MAX_ADDRESS),
    st.integers(min_value=0, max_value=32),
)
addresses = st.integers(min_value=0, max_value=ipv4.MAX_ADDRESS)


def announce(table: RoutingTable, prefix: Prefix, origin: int) -> None:
    table.add(
        Route(prefix, AsPath((origin,)), AutonomousSystem(origin, AsTier.STUB))
    )


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(prefixes, min_size=1, max_size=60),
    probes=st.lists(addresses, min_size=1, max_size=30),
)
def test_resolve_prefix_matches_linear_scan(entries, probes):
    table = RoutingTable()
    origins = {}
    for index, prefix in enumerate(entries):
        announce(table, prefix, index + 1)
        origins[prefix] = index + 1  # a re-announcement replaces
    assert len(table) == len(origins)
    assert table.prefixes() == sorted(origins)
    # network and broadcast addresses probe the exact boundaries too
    edges = [p.network for p in origins] + [p.broadcast for p in origins]
    for address in probes + edges:
        expected = longest_match(origins, address)
        assert table.resolve_prefix(address) == expected
        found = table.resolve(address)
        if expected is not None:
            assert found.origin_as.number == origins[expected]
