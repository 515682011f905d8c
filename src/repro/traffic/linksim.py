"""Whole-link workload simulation: population + diurnal + RIB → RateMatrix.

A :class:`LinkWorkload` bundles everything the experiments need about a
monitored link: its rate matrix (the paper's ``x_i(t)``), the BGP table
that defines the flow keys, and the physical capacity for utilisation
reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import WorkloadError
from repro.flows.matrix import RateMatrix
from repro.flows.records import TimeAxis
from repro.routing.rib import RoutingTable
from repro.routing.ribgen import RibGeneratorConfig, generate_rib
from repro.traffic.diurnal import DiurnalProfile
from repro.traffic.flowmodel import (
    FlowModelConfig,
    FlowPopulation,
    generate_rate_matrix_values,
)

#: OC-12 payload capacity, the paper's link speed (bits/second).
OC12_CAPACITY_BPS = 622_080_000.0


@dataclass(frozen=True)
class LinkConfig:
    """Configuration of one simulated backbone link."""

    name: str
    profile: DiurnalProfile
    flow_model: FlowModelConfig = field(default_factory=FlowModelConfig)
    capacity_bps: float = OC12_CAPACITY_BPS
    #: Mean utilisation the rate matrix is normalised to (fraction).
    target_mean_utilization: float = 0.35
    #: No single prefix-flow may exceed this fraction of link capacity:
    #: a destination network's traffic is bounded by its own access
    #: links, and an unbounded burst would otherwise let one flow carry
    #: most of a slot and whipsaw the constant-load threshold.
    max_flow_capacity_fraction: float = 0.20
    num_slots: int = 336
    slot_seconds: float = 300.0
    #: Time-of-day at slot 0, seconds after local midnight (09:00 here,
    #: matching the figure's clock).
    start_seconds_of_day: float = 9 * 3600.0
    #: Epoch timestamp of slot 0 (2001-07-24 09:00 by default; the value
    #: itself only matters for pcap timestamps and display).
    start_epoch: float = 995_990_400.0 + 9 * 3600.0
    seed: int = 42

    def validate(self) -> None:
        if self.capacity_bps <= 0:
            raise WorkloadError("capacity must be positive")
        if not 0 < self.target_mean_utilization < 1:
            raise WorkloadError("target_mean_utilization must be in (0, 1)")
        if not 0 < self.max_flow_capacity_fraction <= 1:
            raise WorkloadError(
                "max_flow_capacity_fraction must be in (0, 1]"
            )
        if self.num_slots <= 0 or self.slot_seconds <= 0:
            raise WorkloadError("num_slots and slot_seconds must be positive")
        if self.seed < 0:
            raise WorkloadError(f"seed {self.seed} must be >= 0")
        self.flow_model.validate()


@dataclass
class LinkWorkload:
    """A fully simulated link: rates, routing table, and metadata."""

    config: LinkConfig
    matrix: RateMatrix
    table: RoutingTable
    population: FlowPopulation

    @property
    def name(self) -> str:
        return self.config.name

    def mean_utilization(self) -> float:
        """Achieved mean utilisation of the simulated link."""
        return self.matrix.mean_utilization(self.config.capacity_bps)


def simulate_link(config: LinkConfig,
                  table: RoutingTable | None = None) -> LinkWorkload:
    """Simulate one link's workload over its configured horizon.

    When ``table`` is omitted, a synthetic RIB with exactly one route per
    flow is generated (including the ~100 /8 population used by the
    prefix-characteristics analysis). Rates are assigned to prefixes in
    a shuffled order so prefix length carries no information about flow
    size — the null hypothesis behind the paper's T3 observation.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)

    if table is None:
        table = generate_rib(RibGeneratorConfig(
            num_routes=config.flow_model.num_flows,
            seed=config.seed + 7,
        ))
    prefixes = table.prefixes()
    if len(prefixes) < config.flow_model.num_flows:
        raise WorkloadError(
            f"table has {len(prefixes)} routes but the flow model wants "
            f"{config.flow_model.num_flows}"
        )
    prefixes = prefixes[: config.flow_model.num_flows]

    population = FlowPopulation.sample(config.flow_model, rng)
    seconds_of_day = (config.start_seconds_of_day
                      + np.arange(config.num_slots) * config.slot_seconds)
    rates = generate_rate_matrix_values(population, config.profile,
                                        seconds_of_day, rng)

    # Decouple flow size from prefix identity: shuffle the row order.
    order = rng.permutation(len(prefixes))
    shuffled_prefixes = [prefixes[i] for i in order]

    # Normalise to the target mean utilisation, but never let the peak
    # slot exceed 90 % of capacity: a real OC-12 cannot carry more than
    # line rate, and the diurnal peak times noise can otherwise overshoot.
    per_slot_load = rates.sum(axis=0)
    mean_load = per_slot_load.mean()
    peak_load = per_slot_load.max()
    if mean_load <= 0:
        raise WorkloadError("simulated link produced zero load")
    scale = min(
        config.target_mean_utilization * config.capacity_bps / mean_load,
        0.90 * config.capacity_bps / peak_load,
    )
    rates *= scale
    population.base_rates *= scale
    # Physical access-capacity bound per prefix (see LinkConfig).
    np.minimum(
        rates,
        config.max_flow_capacity_fraction * config.capacity_bps,
        out=rates,
    )

    axis = TimeAxis(config.start_epoch, config.slot_seconds, config.num_slots)
    matrix = RateMatrix(shuffled_prefixes, axis, rates)
    return LinkWorkload(config, matrix, table, population)
