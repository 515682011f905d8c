"""Synthetic backbone workloads: distributions, diurnal profiles,
flow-rate processes, link simulation and packetisation."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "distributions": (
            "BoundedPareto",
            "Lognormal",
            "PacketSizeMix",
            "Pareto",
        ),
        "diurnal": (
            "EAST_COAST_PROFILE",
            "FLAT_PROFILE",
            "WEST_COAST_PROFILE",
            "DiurnalProfile",
        ),
        "flowmodel": (
            "FlowModelConfig",
            "FlowPopulation",
            "generate_rate_matrix_values",
            "simulate_flat_population",
        ),
        "linksim": (
            "OC12_CAPACITY_BPS",
            "LinkConfig",
            "LinkWorkload",
            "simulate_link",
        ),
        "packetize": ("PacketizerConfig", "packetize_matrix", "write_pcap"),
        "scenarios": (
            "PAPER_NUM_FLOWS",
            "PAPER_NUM_SLOTS",
            "both_links",
            "east_coast_config",
            "east_coast_link",
            "west_coast_config",
            "west_coast_link",
        ),
    },
)
