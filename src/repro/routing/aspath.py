"""AS-level metadata for routes: AS paths, origin classes, peer tiers.

The paper's Section III observes that elephants "belong to other Tier-1
ISP providers". To support that analysis on synthetic data, every route
carries an origin AS annotated with a tier. The model is deliberately
simple: a Tier-1 clique, Tier-2 regionals, and stub/edge ASes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import RoutingError


class AsTier(enum.Enum):
    """Coarse position of an AS in the provider hierarchy."""

    TIER1 = "tier1"
    TIER2 = "tier2"
    STUB = "stub"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class AutonomousSystem:
    """An AS number with its tier label and a display name."""

    number: int
    tier: AsTier
    name: str = ""

    def __post_init__(self) -> None:
        if not 0 < self.number < (1 << 32):
            raise RoutingError(f"AS number {self.number} out of range")

    def __str__(self) -> str:
        return f"AS{self.number}"


@dataclass(frozen=True)
class AsPath:
    """An ordered AS path, nearest AS first (as in a BGP UPDATE).

    The origin AS is the last element. Paths must be non-empty and may
    contain prepending (repeated ASes) but no loops of distinct ASes.
    """

    hops: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.hops:
            raise RoutingError("AS path must contain at least one AS")
        # Reject loops: an AS may repeat only in a contiguous prepend block.
        seen: set[int] = set()
        previous = None
        for hop in self.hops:
            if hop != previous and hop in seen:
                raise RoutingError(f"AS path {self.hops} contains a loop")
            seen.add(hop)
            previous = hop

    @property
    def origin(self) -> int:
        """The AS that originated the route (last hop)."""
        return self.hops[-1]

    @property
    def length(self) -> int:
        """Path length counting prepends, as BGP best-path selection does."""
        return len(self.hops)

    def __str__(self) -> str:
        return " ".join(str(hop) for hop in self.hops)
