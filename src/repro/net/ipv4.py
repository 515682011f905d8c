"""IPv4 address primitives.

Addresses are represented as plain ``int`` values in ``[0, 2**32)`` so that
they can live in numpy arrays and be masked with bitwise arithmetic in hot
paths (longest-prefix match, aggregation). This module provides parsing,
formatting and mask helpers around that representation.
"""

from __future__ import annotations

from repro.errors import AddressError

#: Number of bits in an IPv4 address.
ADDRESS_BITS = 32

#: Largest representable IPv4 address as an integer (255.255.255.255).
MAX_ADDRESS = (1 << ADDRESS_BITS) - 1


def parse_ipv4(text: str) -> int:
    """Parse dotted-quad ``text`` (e.g. ``"192.0.2.1"``) into an integer.

    Raises :class:`~repro.errors.AddressError` on malformed input. Leading
    zeros are accepted (``"010.0.0.1"`` is ``10.0.0.1``) to match the
    permissive behaviour of most measurement tooling.
    """
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise AddressError(f"expected four dotted octets, got {text!r}")
    value = 0
    for part in parts:
        if not (part.isascii() and part.isdigit()):
            raise AddressError(f"non-numeric octet {part!r} in {text!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"octet {octet} out of range in {text!r}")
        value = (value << 8) | octet
    return value


def format_ipv4(address: int) -> str:
    """Format integer ``address`` as a dotted quad string."""
    if not 0 <= address <= MAX_ADDRESS:
        raise AddressError(f"address {address!r} out of IPv4 range")
    return ".".join(
        str((address >> shift) & 0xFF) for shift in (24, 16, 8, 0)
    )


def netmask(prefix_length: int) -> int:
    """Return the integer netmask for ``prefix_length`` bits.

    ``netmask(24)`` is ``0xFFFFFF00``; ``netmask(0)`` is ``0``.
    """
    if not 0 <= prefix_length <= ADDRESS_BITS:
        raise AddressError(f"prefix length {prefix_length} out of range 0..32")
    if prefix_length == 0:
        return 0
    return (MAX_ADDRESS << (ADDRESS_BITS - prefix_length)) & MAX_ADDRESS


def hostmask(prefix_length: int) -> int:
    """Return the integer host mask (complement of the netmask)."""
    return netmask(prefix_length) ^ MAX_ADDRESS


def network_address(address: int, prefix_length: int) -> int:
    """Zero the host bits of ``address`` under ``prefix_length``."""
    return address & netmask(prefix_length)


def broadcast_address(address: int, prefix_length: int) -> int:
    """Set all host bits of ``address`` under ``prefix_length``."""
    return address | hostmask(prefix_length)


def bit_at(address: int, position: int) -> int:
    """Return bit ``position`` of ``address``, counting from the MSB.

    ``bit_at(x, 0)`` is the most significant bit (:meth:`Prefix.bit_at`).
    """
    if not 0 <= position < ADDRESS_BITS:
        raise AddressError(f"bit position {position} out of range 0..31")
    return (address >> (ADDRESS_BITS - 1 - position)) & 1


def random_host_in(network: int, prefix_length: int, rng) -> int:
    """Draw a uniformly random address inside ``network/prefix_length``.

    ``rng`` is a :class:`numpy.random.Generator` (or anything exposing
    ``integers``). For a /32 this returns the network address itself.
    """
    span = 1 << (ADDRESS_BITS - prefix_length)
    if span == 1:
        return network
    offset = int(rng.integers(0, span))
    return network_address(network, prefix_length) + offset
