"""Low-level IPv4 networking primitives (addresses, prefixes, checksums)."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "checksum": ("internet_checksum", "verify_checksum"),
        "ipv4": (
            "ADDRESS_BITS",
            "MAX_ADDRESS",
            "format_ipv4",
            "netmask",
            "parse_ipv4",
        ),
        "prefix": ("DEFAULT_ROUTE", "Prefix", "PrefixColumns"),
    },
)
