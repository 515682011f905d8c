"""The :class:`Prefix` type: an IPv4 CIDR network used as a flow key.

The paper aggregates traffic at the granularity of BGP destination network
prefixes, so prefixes are the primary flow identifiers throughout the
library. :class:`Prefix` is immutable, hashable, and totally ordered
(first by network address, then by length), which makes it usable as a
dict key and sortable for deterministic reports.

A *table* of prefixes — a RIB, a resolver's population — is a
:class:`PrefixColumns`: two integer arrays, with a :class:`Prefix`
built only for the rows somebody reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.errors import AddressError
from repro.net import ipv4


@dataclass(frozen=True, order=True)
class Prefix:
    """An IPv4 network prefix ``network/length``.

    ``network`` must have all host bits zero; the constructor enforces
    this so that two logically equal prefixes always compare equal.
    """

    network: int
    length: int

    def __post_init__(self) -> None:
        network, length = self.network, self.length
        if not 0 <= length <= 32:
            raise AddressError(f"prefix length {length} out of range 0..32")
        if not 0 <= network <= 0xFFFFFFFF:
            raise AddressError(f"network {network!r} out of IPv4 range")
        if network & ((1 << (32 - length)) - 1):
            raise AddressError(
                f"{ipv4.format_ipv4(network)}/{length} has host bits set"
            )

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` (or a bare address, meaning /32)."""
        text = text.strip()
        if "/" in text:
            addr_text, _, len_text = text.partition("/")
            if not len_text.isdigit():
                raise AddressError(f"bad prefix length in {text!r}")
            length = int(len_text)
        else:
            addr_text, length = text, ipv4.ADDRESS_BITS
        address = ipv4.parse_ipv4(addr_text)
        if length <= 32 and address & ((1 << (32 - length)) - 1):
            raise AddressError(f"{text!r} has host bits set")
        return cls(address, length)

    @classmethod
    def from_host(cls, address: int, length: int) -> "Prefix":
        """Build the prefix of ``length`` bits containing ``address``."""
        return cls(ipv4.network_address(address, length), length)

    def __str__(self) -> str:
        return f"{ipv4.format_ipv4(self.network)}/{self.length}"

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"

    @property
    def netmask(self) -> int:
        """Integer netmask of this prefix."""
        return ipv4.netmask(self.length)

    @property
    def broadcast(self) -> int:
        """Highest address covered by this prefix."""
        return ipv4.broadcast_address(self.network, self.length)

    @property
    def num_addresses(self) -> int:
        """Number of addresses covered (``2**(32-length)``)."""
        return 1 << (ipv4.ADDRESS_BITS - self.length)

    def contains_address(self, address: int) -> bool:
        """Return ``True`` if ``address`` falls inside this prefix."""
        return ipv4.network_address(address, self.length) == self.network

    def contains(self, other: "Prefix") -> bool:
        """Return ``True`` if ``other`` is equal to or more specific."""
        if other.length < self.length:
            return False
        return ipv4.network_address(other.network, self.length) == self.network

    def overlaps(self, other: "Prefix") -> bool:
        """Return ``True`` if the address ranges intersect at all."""
        return self.contains(other) or other.contains(self)

    def supernet(self, new_length: int | None = None) -> "Prefix":
        """The enclosing prefix of ``new_length`` (default one bit shorter)."""
        if new_length is None:
            new_length = self.length - 1
        if not 0 <= new_length <= self.length:
            raise AddressError(
                f"supernet length {new_length} invalid for /{self.length}"
            )
        return Prefix.from_host(self.network, new_length)

    def subnets(self) -> Iterator["Prefix"]:
        """Yield the two halves of this prefix (one bit longer each)."""
        if self.length >= ipv4.ADDRESS_BITS:
            raise AddressError("cannot subnet a /32")
        child_length = self.length + 1
        yield Prefix(self.network, child_length)
        yield Prefix(
            self.network | (1 << (ipv4.ADDRESS_BITS - child_length)),
            child_length,
        )

    def bit_at(self, position: int) -> int:
        """Bit ``position`` (from MSB) of the network address."""
        return ipv4.bit_at(self.network, position)


#: The default route, matching every address.
DEFAULT_ROUTE = Prefix(0, 0)


class PrefixColumns(Sequence[Prefix]):
    """A prefix table as two int64 columns, boxed only where it is read.

    Row ``i`` is ``network[i]/length[i]`` (both arrays are views: do
    not write). Tables are append-only and are sorted, matched and
    shipped between processes as arrays; reading a row builds — and so
    validates — one :class:`Prefix`. Compares equal to any sequence of
    the same prefixes in the same order.
    """

    def __init__(
        self, network: Sequence[int] = (), length: Sequence[int] = ()
    ) -> None:
        self._rows = np.empty((2, 0), dtype=np.int64)
        self._size = 0
        self.extend(network, length)

    @classmethod
    def of(cls, prefixes: Sequence[Prefix]) -> "PrefixColumns":
        """Columns of any prefix sequence (itself, if it already is one)."""
        if isinstance(prefixes, cls):
            return prefixes
        network = [prefix.network for prefix in prefixes]
        return cls(network, [prefix.length for prefix in prefixes])

    @classmethod
    def take(
        cls, prefixes: Sequence[Prefix], rows: np.ndarray
    ) -> "PrefixColumns":
        """Columns of ``prefixes[row]`` for each of ``rows``; only those
        rows are unboxed when ``prefixes`` is not columns already."""
        if isinstance(prefixes, cls):
            return prefixes[rows]
        return cls.of([prefixes[row] for row in rows.tolist()])

    def keys(self) -> np.ndarray:
        """``network << 6 | length``: an int64 that sorts as prefixes do."""
        return self.network << 6 | self.length

    def valid(self) -> np.ndarray:
        """Per row: would :class:`Prefix` accept it (its checks, as a mask)?"""
        bits = np.clip(self.length, 0, 32)
        index = self.network >> (32 - bits)  # which /bits network it is
        whole = (bits == self.length) & (index << (32 - bits) == self.network)
        return whole & (0 <= index) & (index < 1 << bits)

    def check(self) -> None:
        """Raise what :class:`Prefix` raises for the first row it refuses."""
        valid = self.valid()
        if not valid.all():
            self[int(np.argmin(valid))]

    def texts(self) -> list[str]:
        """``str(prefix)`` per row, formatted straight from the two
        integers: no :class:`Prefix` is built (or checked)."""
        octets = ((self.network >> s & 0xFF).tolist() for s in (24, 16, 8, 0))
        fields = zip(*octets, self.length.tolist())
        return ["%d.%d.%d.%d/%d" % row for row in fields]

    def extend(self, network: Sequence[int], length: Sequence[int]) -> None:
        """Append rows (amortised O(1) each); nothing is boxed or checked."""
        held, size = self._size, self._size + len(network)
        if size > self._rows.shape[1]:
            grown = np.empty((2, max(size, 2 * held)), dtype=np.int64)
            grown[:, :held] = self._rows[:, :held]
            self._rows = grown
        self._rows[:, held:size] = network, length
        self._size = size
        self.network, self.length = self._rows[:, :size]

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, row):
        if isinstance(row, (slice, np.ndarray)):  # a table of those rows
            return PrefixColumns(self.network[row], self.length[row])
        if row < 0:
            row += self._size
        if not 0 <= row < self._size:
            raise IndexError("prefix row out of range")
        # .item() hands back Python ints: this is the one per-row cost
        # of a table that earns traffic, so it skips the column views
        return Prefix(self._rows.item(0, row), self._rows.item(1, row))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Sequence):
            return len(other) == len(self) and list(self) == list(other)
        return NotImplemented
