"""BGP routing substrate: radix-trie LPM, RIB model, synthetic tables."""

from repro.routing.aspath import AsPath, AsTier, AutonomousSystem
from repro.routing.lpm import NO_ROUTE, CompiledLpm, FixedLengthResolver
from repro.routing.radix import RadixTree, brute_force_lookup
from repro.routing.rib import Route, RoutingTable
from repro.routing.ribfile import parse_prefix_lines, read_rib
from repro.routing.ribgen import (
    DEFAULT_LENGTH_WEIGHTS,
    RibGeneratorConfig,
    generate_rib,
)

__all__ = [
    "AsPath",
    "AsTier",
    "AutonomousSystem",
    "CompiledLpm",
    "DEFAULT_LENGTH_WEIGHTS",
    "FixedLengthResolver",
    "NO_ROUTE",
    "RadixTree",
    "RibGeneratorConfig",
    "Route",
    "RoutingTable",
    "brute_force_lookup",
    "generate_rib",
    "parse_prefix_lines",
    "read_rib",
]
