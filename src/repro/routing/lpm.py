"""Array-compiled longest-prefix match for the vectorized hot path.

The radix trie (:mod:`repro.routing.radix`) resolves one address per
call, which is the right shape for control-plane lookups but not for
ingesting millions of packets. Because announced prefixes form a laminar
family (any two prefixes either nest or are disjoint), longest-prefix
match over the whole table flattens into a sorted list of disjoint
address segments, each owned by the deepest covering prefix. Resolving a
*batch* of addresses is then one ``np.searchsorted`` over the segment
bounds — O(log n) per address with no Python-level work per packet.

:class:`CompiledLpm` is an immutable snapshot: routes added to the table
after compilation are not seen. The aggregation layer recompiles when it
detects a table-size change; callers holding a long-lived compiled
matcher across RIB churn should recompile explicitly.

:class:`FixedLengthResolver` covers captures without a RIB: flows are
the /L networks the traffic itself shows. With one length there is
nothing to search — an address's network number is a shift — so the
network → row step is one :class:`~repro.hash_index.HashIndex` probe
per address, O(1) however many networks are known, in O(networks)
memory for every L.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import AddressError, RoutingError
from repro.hash_index import ABSENT, HashIndex
from repro.net.ipv4 import MAX_ADDRESS
from repro.net.prefix import Prefix
from repro.routing.rib import RoutingTable

#: Row value meaning "no covering prefix" in lookup results.
NO_ROUTE = -1


class CompiledLpm:
    """Longest-prefix match compiled to sorted segment arrays.

    ``prefixes`` fixes the row numbering: ``lookup(addresses)`` returns,
    for every address, the index into ``prefixes`` of its longest match
    (or :data:`NO_ROUTE`). Rows are in lexicographic prefix order, the
    same order :meth:`RoutingTable.prefixes` yields, so results align
    with matrices built over ``table.prefixes()``.
    """

    def __init__(self, prefixes: Sequence[Prefix]) -> None:
        if len(set(prefixes)) != len(prefixes):
            raise RoutingError("duplicate prefixes in LPM table")
        self.prefixes: list[Prefix] = sorted(prefixes)
        bounds, owners = self._flatten(self.prefixes)
        self._bounds = bounds
        self._owners = owners

    @classmethod
    def from_table(cls, table: RoutingTable) -> "CompiledLpm":
        """Compile the current snapshot of a routing table."""
        return cls(table.prefixes())

    def __len__(self) -> int:
        return len(self.prefixes)

    @staticmethod
    def _flatten(prefixes: list[Prefix]) -> tuple[np.ndarray, np.ndarray]:
        """Sweep the laminar prefix family into disjoint owned segments.

        Prefixes sorted by (network, length) visit every parent before
        its children; a stack of open intervals tracks the current
        deepest cover. Bounds use int64 because the final segment end is
        2**32, one past the largest address.
        """
        bounds: list[int] = [0]
        owners: list[int] = [NO_ROUTE]
        stack: list[tuple[int, int]] = []  # (end, owner row)

        def emit(position: int, owner: int) -> None:
            if bounds[-1] == position:
                owners[-1] = owner
            elif owners[-1] != owner:
                bounds.append(position)
                owners.append(owner)

        for row, prefix in enumerate(prefixes):
            start = prefix.network
            end = prefix.broadcast + 1
            while stack and stack[-1][0] <= start:
                closed_end, _ = stack.pop()
                emit(closed_end, stack[-1][1] if stack else NO_ROUTE)
            emit(start, row)
            stack.append((end, row))
        while stack:
            closed_end, _ = stack.pop()
            emit(closed_end, stack[-1][1] if stack else NO_ROUTE)

        return (
            np.array(bounds, dtype=np.int64),
            np.array(owners, dtype=np.int64),
        )

    def lookup(self, addresses: np.ndarray) -> np.ndarray:
        """Longest-prefix match a batch of integer addresses.

        Returns an int64 array of rows into :attr:`prefixes`, with
        :data:`NO_ROUTE` where no prefix covers the address.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        segments = np.searchsorted(self._bounds, addresses, side="right") - 1
        return self._owners[segments]

    def lookup_one(self, address: int) -> Prefix | None:
        """Scalar convenience mirroring :meth:`RoutingTable.resolve_prefix`."""
        row = int(self.lookup(np.array([address]))[0])
        return None if row == NO_ROUTE else self.prefixes[row]


class FixedLengthResolver:
    """Map addresses to fixed-length covering prefixes, no RIB needed.

    This is the "/L granularity" fallback for captures without routing
    data: every destination belongs to the /``length`` prefix containing
    it, and the flow population is discovered from the traffic itself.
    Rows are assigned in order of first appearance (sorted within the
    batch that discovers them), so the mapping is dynamic — exactly
    what the streaming aggregator expects. Memory is O(flows seen) for
    every length, /32 host flows included.
    """

    def __init__(self, length: int) -> None:
        if not 0 <= length <= 32:
            raise RoutingError(f"prefix length {length} out of range 0..32")
        self.length = length
        self._shift = 32 - length
        # network number (address >> shift) → row: a lookup is one hash
        # probe per packet however many networks are known
        self._index = HashIndex()
        self.prefixes: list[Prefix] = []

    def __len__(self) -> int:
        return len(self.prefixes)

    def lookup(self, addresses: np.ndarray) -> np.ndarray:
        """Resolve a batch of addresses, growing the population as needed.

        A batch holding an address outside ``0..2**32 - 1`` raises
        :class:`~repro.errors.AddressError` and changes nothing.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        if addresses.size == 0:
            return np.empty(0, dtype=np.int64)
        low, high = int(addresses.min()), int(addresses.max())
        if low < 0 or high > MAX_ADDRESS:
            raise AddressError(
                f"address {low if low < 0 else high} out of IPv4 range"
            )
        networks = addresses >> self._shift
        rows = self._index.find(networks)
        unknown = np.flatnonzero(rows == ABSENT)
        if unknown.size:
            # new networks earn rows in sorted order per batch, so the
            # numbering depends on batch boundaries but not on packet
            # order within a batch
            fresh, inverse = np.unique(networks[unknown], return_inverse=True)
            base = len(self.prefixes)
            shift, length = self._shift, self.length
            self.prefixes.extend(
                Prefix(number << shift, length) for number in fresh.tolist()
            )
            self._index.insert(
                fresh, np.arange(base, base + fresh.size, dtype=np.int64)
            )
            rows[unknown] = base + inverse
        return rows
