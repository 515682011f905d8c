"""A BGP routing information base (RIB) keyed by destination prefix.

The RIB is the structure the paper takes as given: its flow granularity
is "the BGP destination network prefix", i.e. a RIB entry. A route
carries its metadata (AS path, origin tier); the table answers
longest-prefix match one address at a time, the per-packet shape the
reference aggregator and the reports need. Batches resolve through the
:meth:`RoutingTable.compiled` snapshot instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from repro.errors import RoutingError
from repro.net.prefix import Prefix
from repro.routing.aspath import AsPath, AsTier, AutonomousSystem

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


def _key(prefix: Prefix) -> int:
    """``network << 6 | length``: equal for equal prefixes, and sorting
    keys sorts prefixes (the :meth:`PrefixColumns.keys` encoding)."""
    return prefix.network << 6 | prefix.length


class RoutingTable:
    """A longest-prefix-match BGP RIB.

    Routes are inserted once; re-announcing a prefix replaces the old
    route. ``resolve`` maps a destination address to the Route whose
    prefix is the longest match — the paper's flow-aggregation key.
    The routes sit in one dict keyed by :func:`_key`; a lookup masks
    the address to each announced length, longest first, and probes.
    """

    def __init__(self, routes: Iterable[Route] = ()) -> None:
        self._routes: dict[int, Route] = {}
        self._lengths: list[int] = []  # announced lengths, longest first
        for route in routes:
            self.add(route)

    def __len__(self) -> int:
        return len(self._routes)

    def __iter__(self) -> Iterator[Route]:
        """Routes in prefix order (by network, then length)."""
        for key in sorted(self._routes):
            yield self._routes[key]

    def __contains__(self, prefix: Prefix) -> bool:
        return _key(prefix) in self._routes

    def add(self, route: Route) -> None:
        """Insert (or replace) the route for ``route.prefix``."""
        prefix = route.prefix
        self._routes[_key(prefix)] = route
        if prefix.length not in self._lengths:
            self._lengths.append(prefix.length)
            self._lengths.sort(reverse=True)

    def route_for(self, prefix: Prefix) -> Optional[Route]:
        """Exact-match route lookup."""
        return self._routes.get(_key(prefix))

    def resolve(self, address: int) -> Optional[Route]:
        """Longest-prefix match of ``address`` to a route."""
        routes = self._routes
        for length in self._lengths:
            host_bits = 32 - length
            # _key of the address's /length network, inlined: this is
            # the per-packet reference aggregator's inner loop
            route = routes.get(address >> host_bits << host_bits << 6 | length)
            if route is not None:
                return route
        return None

    def resolve_prefix(self, address: int) -> Optional[Prefix]:
        """Longest-prefix match returning only the flow key."""
        route = self.resolve(address)
        return None if route is None else route.prefix

    def prefixes(self) -> list[Prefix]:
        """All announced prefixes in prefix order."""
        return [route.prefix for route in self]

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
