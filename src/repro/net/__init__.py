"""Low-level IPv4 networking primitives (addresses, prefixes, checksums)."""

from repro.net.ipv4 import (
    ADDRESS_BITS,
    MAX_ADDRESS,
    format_ipv4,
    netmask,
    parse_ipv4,
)
from repro.net.prefix import DEFAULT_ROUTE, Prefix, PrefixColumns
from repro.net.checksum import internet_checksum, verify_checksum

__all__ = [
    "ADDRESS_BITS",
    "MAX_ADDRESS",
    "DEFAULT_ROUTE",
    "Prefix",
    "PrefixColumns",
    "format_ipv4",
    "internet_checksum",
    "netmask",
    "parse_ipv4",
    "verify_checksum",
]
