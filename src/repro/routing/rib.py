"""A BGP routing information base (RIB) keyed by destination prefix.

The RIB is the structure the paper takes as given: its flow granularity
is "the BGP destination network prefix", i.e. a RIB entry. Our RIB wraps
the radix trie with route metadata (AS path, origin tier) and provides
the packet-to-flow mapping used by the aggregation layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from repro.errors import RoutingError
from repro.net.prefix import Prefix
from repro.routing.aspath import AsPath, AsTier, AutonomousSystem
from repro.routing.radix import RadixTree

if TYPE_CHECKING:
    from repro.routing.lpm import CompiledLpm


@dataclass(frozen=True)
class Route:
    """One RIB entry: a destination prefix and its BGP attributes."""

    prefix: Prefix
    as_path: AsPath
    origin_as: AutonomousSystem

    def __post_init__(self) -> None:
        if self.as_path.origin != self.origin_as.number:
            raise RoutingError(
                f"AS path origin {self.as_path.origin} disagrees with "
                f"origin AS {self.origin_as.number}"
            )

    @property
    def prefix_length(self) -> int:
        """Length of the destination prefix in bits."""
        return self.prefix.length

    @property
    def origin_tier(self) -> AsTier:
        """Tier of the originating AS."""
        return self.origin_as.tier


class RoutingTable:
    """A longest-prefix-match BGP RIB.

    Routes are inserted once; re-announcing a prefix replaces the old
    route. ``resolve`` maps a destination address to the Route whose
    prefix is the longest match — the paper's flow-aggregation key.
    """

    def __init__(self, routes: Iterable[Route] = ()) -> None:
        self._tree: RadixTree[Route] = RadixTree()
        for route in routes:
            self.add(route)

    def __len__(self) -> int:
        return len(self._tree)

    def __iter__(self) -> Iterator[Route]:
        for _, route in self._tree:
            yield route

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._tree

    def add(self, route: Route) -> None:
        """Insert (or replace) the route for ``route.prefix``."""
        self._tree.insert(route.prefix, route)

    def withdraw(self, prefix: Prefix) -> Route:
        """Remove the route for ``prefix``; raises if absent."""
        return self._tree.delete(prefix)

    def route_for(self, prefix: Prefix) -> Optional[Route]:
        """Exact-match route lookup."""
        return self._tree.get(prefix)

    def resolve(self, address: int) -> Optional[Route]:
        """Longest-prefix match of ``address`` to a route."""
        match = self._tree.lookup(address)
        return None if match is None else match[1]

    def resolve_prefix(self, address: int) -> Optional[Prefix]:
        """Longest-prefix match returning only the flow key."""
        return self._tree.lookup_prefix(address)

    def prefixes(self) -> list[Prefix]:
        """All announced prefixes in deterministic order."""
        return self._tree.prefixes()

    def compiled(self) -> CompiledLpm:
        """This snapshot as a batch resolver (what an aggregator runs)."""
        from repro.routing.lpm import CompiledLpm

        return CompiledLpm.from_table(self)

    def prefix_length_histogram(self) -> dict[int, int]:
        """Count of routes per prefix length (used by the T3 analysis)."""
        histogram: dict[int, int] = {}
        for route in self:
            length = route.prefix_length
            histogram[length] = histogram.get(length, 0) + 1
        return histogram

    def routes_by_tier(self) -> dict[AsTier, list[Route]]:
        """Group routes by the tier of their origin AS."""
        groups: dict[AsTier, list[Route]] = {tier: [] for tier in AsTier}
        for route in self:
            groups[route.origin_tier].append(route)
        return groups
