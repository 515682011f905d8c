"""Random-variate building blocks for the synthetic workload.

Backbone traffic modelling needs three staples: Pareto (heavy-tailed
flow sizes and rates), lognormal (multiplicative volatility), and an
empirical packet-size mix. Each distribution validates its parameters
at construction so misconfiguration fails loudly at setup time, not in
the middle of a simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError


@dataclass(frozen=True)
class Pareto:
    """Pareto distribution with tail index ``alpha`` and scale ``x_min``.

    ``P(X > x) = (x_min / x) ** alpha`` for ``x >= x_min``. ``alpha <= 1``
    has infinite mean — exactly the regime elephant populations live in,
    so :meth:`mean` guards against it.
    """

    alpha: float
    x_min: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise WorkloadError(f"Pareto alpha {self.alpha} must be positive")
        if self.x_min <= 0:
            raise WorkloadError(f"Pareto x_min {self.x_min} must be positive")

    def sample(self, rng: np.random.Generator,
               size: int | tuple[int, ...] = 1) -> np.ndarray:
        """Draw samples via inverse-CDF on uniform variates."""
        uniforms = rng.random(size)
        return self.x_min * (1.0 - uniforms) ** (-1.0 / self.alpha)

    def ccdf(self, x: np.ndarray) -> np.ndarray:
        """Exact ``P(X > x)``."""
        x = np.asarray(x, dtype=float)
        out = np.ones_like(x)
        above = x >= self.x_min
        out[above] = (self.x_min / x[above]) ** self.alpha
        return out

    def mean(self) -> float:
        """Finite mean (requires ``alpha > 1``)."""
        if self.alpha <= 1.0:
            raise WorkloadError(
                f"Pareto with alpha={self.alpha} has infinite mean"
            )
        return self.alpha * self.x_min / (self.alpha - 1.0)


@dataclass(frozen=True)
class BoundedPareto:
    """Pareto truncated to ``[x_min, x_max]`` by inverse-CDF sampling.

    Flow *rates* cannot exceed link capacity, so the unbounded tail must
    be clipped somewhere physical; truncation (rather than rejection)
    keeps sampling O(1) and the spectral shape intact below the bound.
    """

    alpha: float
    x_min: float
    x_max: float

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise WorkloadError(f"alpha {self.alpha} must be positive")
        if not 0 < self.x_min < self.x_max:
            raise WorkloadError(
                f"need 0 < x_min < x_max, got [{self.x_min}, {self.x_max}]"
            )

    def sample(self, rng: np.random.Generator,
               size: int | tuple[int, ...] = 1) -> np.ndarray:
        """Inverse-CDF sampling of the truncated distribution."""
        uniforms = rng.random(size)
        ratio = (self.x_min / self.x_max) ** self.alpha
        return self.x_min * (1.0 - uniforms * (1.0 - ratio)) ** (-1.0 / self.alpha)


#: Classic backbone packet-size mix: ~40-byte control/ACK packets,
#: ~576-byte legacy-MTU packets, ~1500-byte full-MTU packets.
DEFAULT_PACKET_SIZES = np.array([40, 576, 1500])
DEFAULT_PACKET_SIZE_WEIGHTS = np.array([0.5, 0.2, 0.3])


@dataclass(frozen=True)
class PacketSizeMix:
    """Discrete packet-size distribution (bytes)."""

    sizes: np.ndarray = None  # type: ignore[assignment]
    weights: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        sizes = (DEFAULT_PACKET_SIZES if self.sizes is None
                 else np.asarray(self.sizes, dtype=int))
        weights = (DEFAULT_PACKET_SIZE_WEIGHTS if self.weights is None
                   else np.asarray(self.weights, dtype=float))
        if sizes.size != weights.size or sizes.size == 0:
            raise WorkloadError("sizes and weights must align and be non-empty")
        if np.any(sizes <= 0):
            raise WorkloadError("packet sizes must be positive")
        if np.any(weights < 0) or weights.sum() <= 0:
            raise WorkloadError("weights must be non-negative, sum positive")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "weights", weights / weights.sum())

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw packet sizes in bytes."""
        return rng.choice(self.sizes, size=size, p=self.weights)

    def mean_bytes(self) -> float:
        """Expected packet size."""
        return float((self.sizes * self.weights).sum())
