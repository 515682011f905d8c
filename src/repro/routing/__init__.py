"""BGP routing substrate: compiled LPM, RIB model, synthetic tables."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "aspath": ("AsPath", "AsTier", "AutonomousSystem"),
        "lpm": ("NO_ROUTE", "CompiledLpm", "FixedLengthResolver"),
        "rib": ("Route", "RoutingTable"),
        "ribfile": ("parse_prefix_lines", "read_rib"),
        "ribgen": (
            "DEFAULT_LENGTH_WEIGHTS",
            "RibGeneratorConfig",
            "generate_rib",
        ),
    },
)
