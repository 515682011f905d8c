"""Synthetic BGP RIB generation.

The paper's traces came with BGP tables from Sprint's backbone; we do not
have those, so this module builds statistically plausible RIBs instead:

- a prefix-length distribution matching what backbone tables looked like
  circa 2001 (the bulk at /24 and /16-/23, a thin population of short
  prefixes including roughly a hundred /8s),
- origin ASes drawn from a three-tier hierarchy (Tier-1 clique, Tier-2
  regionals, stubs), and
- AS paths of realistic lengths ending at the origin.

Generation is fully deterministic given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import RoutingError
from repro.net.prefix import Prefix
from repro.routing.aspath import AsPath, AsTier, AutonomousSystem
from repro.routing.rib import Route, RoutingTable

#: Default mix of prefix lengths, loosely following backbone RIB snapshots
#: from the paper's era: /24 dominates, /16 is the second mode, short
#: prefixes are rare. Values are relative weights, not probabilities.
DEFAULT_LENGTH_WEIGHTS: dict[int, float] = {
    8: 0.8,
    9: 0.2,
    10: 0.3,
    11: 0.5,
    12: 0.8,
    13: 1.0,
    14: 1.8,
    15: 1.8,
    16: 9.0,
    17: 1.5,
    18: 2.5,
    19: 4.5,
    20: 3.5,
    21: 3.0,
    22: 3.5,
    23: 4.0,
    24: 52.0,
    25: 1.0,
    26: 1.2,
    27: 0.8,
    28: 0.6,
    29: 0.7,
    30: 0.5,
}

#: Share of routes originated by each AS tier. Most routes are originated
#: by edge networks, but a visible share belongs to other large ISPs --
#: the population the paper found its elephants in.
DEFAULT_TIER_SHARES: dict[AsTier, float] = {
    AsTier.TIER1: 0.18,
    AsTier.TIER2: 0.37,
    AsTier.STUB: 0.45,
}


@dataclass
class RibGeneratorConfig:
    """Parameters for :func:`generate_rib`.

    ``num_routes`` is the table size. ``num_slash8`` forces that many /8
    routes into the table regardless of the weight mix (the paper reports
    about 100 active /8 networks). Tier populations control how many
    distinct ASes exist per tier.
    """

    num_routes: int = 5000
    num_slash8: int = 100
    length_weights: dict[int, float] = field(
        default_factory=lambda: dict(DEFAULT_LENGTH_WEIGHTS)
    )
    tier_shares: dict[AsTier, float] = field(
        default_factory=lambda: dict(DEFAULT_TIER_SHARES)
    )
    num_tier1: int = 12
    num_tier2: int = 120
    num_stub: int = 2500
    max_path_length: int = 6
    seed: int = 2001

    def validate(self) -> None:
        if self.num_routes <= 0:
            raise RoutingError("num_routes must be positive")
        if self.num_slash8 < 0 or self.num_slash8 > 256:
            raise RoutingError("num_slash8 must be within 0..256")
        if self.num_slash8 > self.num_routes:
            raise RoutingError("num_slash8 cannot exceed num_routes")
        if not self.length_weights:
            raise RoutingError("length_weights must not be empty")
        for length in self.length_weights:
            if not 1 <= length <= 30:
                raise RoutingError(f"prefix length {length} outside 1..30")
        if any(weight < 0 for weight in self.length_weights.values()):
            raise RoutingError("length weights must be non-negative")
        total_share = sum(self.tier_shares.values())
        if total_share <= 0:
            raise RoutingError("tier shares must sum to a positive value")
        if self.max_path_length < 1:
            raise RoutingError("max_path_length must be >= 1")


def build_as_registry(config: RibGeneratorConfig,
                      rng: np.random.Generator) -> dict[AsTier, list[AutonomousSystem]]:
    """Create the AS populations for each tier.

    Tier-1 ASes get small, memorable numbers (as the real clique does);
    the rest are drawn from disjoint ranges so numbers never collide.
    """
    tier1_numbers = rng.choice(
        np.arange(100, 7000), size=config.num_tier1, replace=False
    )
    tier2_numbers = rng.choice(
        np.arange(7000, 20000), size=config.num_tier2, replace=False
    )
    stub_numbers = rng.choice(
        np.arange(20000, 64000), size=config.num_stub, replace=False
    )
    return {
        AsTier.TIER1: [
            AutonomousSystem(int(number), AsTier.TIER1, f"tier1-{index}")
            for index, number in enumerate(sorted(tier1_numbers))
        ],
        AsTier.TIER2: [
            AutonomousSystem(int(number), AsTier.TIER2, f"tier2-{index}")
            for index, number in enumerate(sorted(tier2_numbers))
        ],
        AsTier.STUB: [
            AutonomousSystem(int(number), AsTier.STUB, f"stub-{index}")
            for index, number in enumerate(sorted(stub_numbers))
        ],
    }


def _sample_lengths(config: RibGeneratorConfig,
                    rng: np.random.Generator) -> np.ndarray:
    """Draw prefix lengths for the non-/8 part of the table."""
    weights = {
        length: weight
        for length, weight in config.length_weights.items()
        if length != 8
    }
    lengths = np.array(sorted(weights), dtype=np.int64)
    probabilities = np.array([weights[int(L)] for L in lengths], dtype=float)
    probabilities = probabilities / probabilities.sum()
    count = config.num_routes - config.num_slash8
    return rng.choice(lengths, size=count, p=probabilities)


def _random_path(origin: AutonomousSystem,
                 registry: dict[AsTier, list[AutonomousSystem]],
                 config: RibGeneratorConfig,
                 rng: np.random.Generator) -> AsPath:
    """Build a loop-free AS path terminating at ``origin``.

    The path walks "down" the hierarchy: it starts at a Tier-1 (the
    observation point is a Tier-1 backbone) and descends towards the
    origin, which keeps paths realistic without simulating full BGP.
    """
    hops: list[int] = []
    tier1 = registry[AsTier.TIER1]
    first = tier1[int(rng.integers(0, len(tier1)))]
    if first.number != origin.number:
        hops.append(first.number)
    if origin.tier is AsTier.STUB and rng.random() < 0.7:
        tier2 = registry[AsTier.TIER2]
        middle = tier2[int(rng.integers(0, len(tier2)))]
        if middle.number not in hops and middle.number != origin.number:
            hops.append(middle.number)
    hops.append(origin.number)
    # Occasional prepending, as seen in real tables.
    if len(hops) < config.max_path_length and rng.random() < 0.1:
        hops.append(origin.number)
    return AsPath(tuple(hops))


def generate_rib(config: RibGeneratorConfig | None = None) -> RoutingTable:
    """Generate a synthetic BGP RIB according to ``config``.

    The table contains exactly ``config.num_routes`` routes with unique
    prefixes, ``config.num_slash8`` of which are /8s. More-specific
    prefixes may nest inside shorter ones, as in real tables, which
    exercises true longest-prefix-match behaviour downstream.
    """
    if config is None:
        config = RibGeneratorConfig()
    config.validate()
    rng = np.random.default_rng(config.seed)
    registry = build_as_registry(config, rng)

    tiers = list(config.tier_shares)
    tier_probabilities = np.array(
        [config.tier_shares[tier] for tier in tiers], dtype=float
    )
    tier_probabilities = tier_probabilities / tier_probabilities.sum()

    def draw_origin() -> AutonomousSystem:
        tier = tiers[int(rng.choice(len(tiers), p=tier_probabilities))]
        population = registry[tier]
        return population[int(rng.integers(0, len(population)))]

    table = RoutingTable()
    used: set[Prefix] = set()

    # The /8 population first: distinct first octets in 1..223 (unicast).
    first_octets = rng.choice(
        np.arange(1, 224), size=config.num_slash8, replace=False
    )
    for octet in sorted(int(o) for o in first_octets):
        prefix = Prefix(octet << 24, 8)
        origin = draw_origin()
        table.add(Route(prefix, _random_path(origin, registry, config, rng),
                        origin))
        used.add(prefix)

    lengths = _sample_lengths(config, rng)
    for length in lengths:
        length = int(length)
        prefix = _draw_unique_prefix(length, used, rng)
        origin = draw_origin()
        table.add(Route(prefix, _random_path(origin, registry, config, rng),
                        origin))
        used.add(prefix)
    return table


def _draw_unique_prefix(length: int, used: set[Prefix],
                        rng: np.random.Generator) -> Prefix:
    """Draw a unicast prefix of ``length`` bits not already in ``used``."""
    for _ in range(10_000):
        # Keep to 1.0.0.0 .. 223.255.255.255 (unicast space).
        first_octet = int(rng.integers(1, 224))
        rest = int(rng.integers(0, 1 << 24))
        address = (first_octet << 24) | rest
        prefix = Prefix.from_host(address, length)
        if prefix not in used:
            return prefix
    raise RoutingError(
        f"could not find a free /{length} prefix after many attempts"
    )
