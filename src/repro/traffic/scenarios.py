"""Canonical scenarios mirroring the paper's measurement setup.

Two OC-12 links observed from 09:00 on 2001-07-24 to 13:00 on
2001-07-25 — 28 hours, i.e. 336 slots of 5 minutes. The west-coast link
is bursty during working hours; the east-coast link is smooth. Scales
below 1.0 shrink the population and horizon proportionally for fast
tests and CI runs.
"""

from __future__ import annotations

from repro.errors import WorkloadError
from repro.traffic.diurnal import EAST_COAST_PROFILE, WEST_COAST_PROFILE
from repro.traffic.flowmodel import FlowModelConfig
from repro.traffic.linksim import LinkConfig, LinkWorkload, simulate_link

#: The paper's observation window: 28 hours of 5-minute slots.
PAPER_NUM_SLOTS = 336
#: Default flow population size for full-scale runs.
PAPER_NUM_FLOWS = 8000
#: Slot floor for scaled-down runs: 12 hours, so that even tiny runs
#: retain a working-hours / off-hours contrast for the Fig 1(a) shape.
MIN_NUM_SLOTS = 144


def _scaled(value: int, scale: float, minimum: int) -> int:
    if not 0 < scale <= 1:  # NaN fails too
        raise WorkloadError(f"scale {scale} must be in (0, 1]")
    return max(minimum, int(round(value * scale)))


def west_coast_config(scale: float = 1.0, seed: int = 2401) -> LinkConfig:
    """The bursty west-coast OC-12 link."""
    return LinkConfig(
        name="west-coast",
        profile=WEST_COAST_PROFILE,
        flow_model=FlowModelConfig(
            num_flows=_scaled(PAPER_NUM_FLOWS, scale, 400),
        ),
        target_mean_utilization=0.38,
        num_slots=_scaled(PAPER_NUM_SLOTS, scale, MIN_NUM_SLOTS),
        seed=seed,
    )


def east_coast_config(scale: float = 1.0, seed: int = 2402) -> LinkConfig:
    """The smoother east-coast OC-12 link."""
    return LinkConfig(
        name="east-coast",
        profile=EAST_COAST_PROFILE,
        flow_model=FlowModelConfig(
            num_flows=_scaled(PAPER_NUM_FLOWS, scale, 400),
        ),
        target_mean_utilization=0.32,
        num_slots=_scaled(PAPER_NUM_SLOTS, scale, MIN_NUM_SLOTS),
        seed=seed,
    )


def west_coast_link(scale: float = 1.0, seed: int = 2401) -> LinkWorkload:
    """Simulate the west-coast scenario."""
    return simulate_link(west_coast_config(scale, seed))


def east_coast_link(scale: float = 1.0, seed: int = 2402) -> LinkWorkload:
    """Simulate the east-coast scenario."""
    return simulate_link(east_coast_config(scale, seed))


def both_links(scale: float = 1.0) -> dict[str, LinkWorkload]:
    """Both paper links, keyed by name."""
    return {
        "west-coast": west_coast_link(scale),
        "east-coast": east_coast_link(scale),
    }
