"""Array-compiled longest-prefix match for the vectorized hot path.

The radix trie (:mod:`repro.routing.radix`) resolves one address per
call, which is the right shape for control-plane lookups but not for
ingesting millions of packets. Because announced prefixes form a laminar
family (any two prefixes either nest or are disjoint), longest-prefix
match over the whole table flattens into a sorted list of disjoint
address segments, each owned by the deepest covering prefix — compiled
from the table's :class:`~repro.net.prefix.PrefixColumns` with array
operations, level by level. Resolving a *batch* of addresses is then a
gather from a 64k-entry /16 root table (the segment each bucket starts
in) and a short binary descent, bounded by how many segments the
batch's busiest bucket spans, with no Python-level work per packet.

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

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import AddressError, RoutingError
from repro.hash_index import ABSENT, HashIndex
from repro.net.ipv4 import MAX_ADDRESS
from repro.net.prefix import Prefix, PrefixColumns

if TYPE_CHECKING:
    from repro.routing.rib import RoutingTable

#: Row value meaning "no covering prefix" in lookup results.
NO_ROUTE = -1

#: The root table is indexed by /16: address bits below a bucket, buckets.
_ROOT_SHIFT = 16
_ROOT_BUCKETS = 1 << 16


def _ipv4_batch(addresses: np.ndarray) -> np.ndarray:
    """The batch as int64, refused whole if any address is not IPv4."""
    addresses = np.asarray(addresses, dtype=np.int64)
    if addresses.size:
        low, high = int(addresses.min()), int(addresses.max())
        if low < 0 or high > MAX_ADDRESS:
            raise AddressError(
                f"address {low if low < 0 else high} out of IPv4 range"
            )
    return addresses


class CompiledLpm:
    """Longest-prefix match compiled to sorted segment arrays.

    ``prefixes`` — any prefix sequence, or the :class:`PrefixColumns` a
    RIB file parses to — fixes the row numbering: ``lookup(addresses)``
    returns, for every address, the index into :attr:`prefixes` of its
    longest match (or :data:`NO_ROUTE`). Rows are in lexicographic
    prefix order, the same order :meth:`RoutingTable.prefixes` yields,
    so results align with matrices built over ``table.prefixes()``.
    """

    def __init__(self, prefixes: Sequence[Prefix]) -> None:
        columns = PrefixColumns.of(prefixes)
        if not columns.valid().all():
            raise AddressError("malformed prefix in LPM table")
        order = np.lexsort((columns.length, columns.network))
        network, length = columns.network[order], columns.length[order]
        self.prefixes = PrefixColumns(network, length)
        keys = self.prefixes.keys()
        if (keys[1:] == keys[:-1]).any():
            raise RoutingError("duplicate prefixes in LPM table")
        self._bounds, self._owners = self._flatten(network, length)
        # /16 root: the segment holding each bucket's first address and
        # how many more the bucket reaches into; a lookup starts there
        # and descends over that many, not over the whole table
        edges = np.arange(_ROOT_BUCKETS + 1, dtype=np.int64) << _ROOT_SHIFT
        self._first = np.searchsorted(self._bounds, edges[:-1], "right") - 1
        last = np.searchsorted(self._bounds, edges[1:] - 1, "right") - 1
        self._span = last - self._first
        # the descent needs no upper limit — the bound after a bucket's
        # last segment is past every address in it — only padding, so
        # that its longest step stays inside the array
        reach = np.full(2 * int(self._span.max()) + 1, 1 << 62)
        self._padded = np.concatenate((self._bounds, reach))

    @classmethod
    def from_table(cls, table: RoutingTable) -> "CompiledLpm":
        """Compile the current snapshot of a routing table."""
        return cls(table.prefixes())

    def __len__(self) -> int:
        return len(self.prefixes)

    @staticmethod
    def _flatten(
        network: np.ndarray, length: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Flatten the laminar prefix family into disjoint owned segments.

        Every prefix edge cuts the address line; each piece belongs to
        the longest prefix over it. Prefixes of one length are disjoint,
        so painting a level is a +row / -row delta and a running sum,
        and painting levels shortest first lets the deeper overwrite.
        Bounds are int64 because a segment may start at 2**32, one past
        the largest address.
        """
        ends = network + (1 << (32 - length))
        cuts = np.sort(np.concatenate(([0], network, ends)))
        cuts = cuts[np.append(True, cuts[1:] != cuts[:-1])]
        owners = np.full(cuts.size, NO_ROUTE, dtype=np.int64)
        for level in np.flatnonzero(np.bincount(length)).tolist():
            rows = np.flatnonzero(length == level)
            paint = np.zeros(cuts.size, dtype=np.int64)
            paint[np.searchsorted(cuts, network[rows])] = rows + 1
            paint[np.searchsorted(cuts, ends[rows])] -= rows + 1
            painted = np.cumsum(paint)
            owners = np.where(painted > 0, painted - 1, owners)
        keep = np.append(True, owners[1:] != owners[:-1])
        return cuts[keep], owners[keep]

    def lookup(self, addresses: np.ndarray) -> np.ndarray:
        """Longest-prefix match a batch of integer addresses.

        Returns an int64 array of rows into :attr:`prefixes`, with
        :data:`NO_ROUTE` where no prefix covers the address. A batch
        holding an address outside ``0..2**32 - 1`` raises
        :class:`~repro.errors.AddressError`.
        """
        addresses = _ipv4_batch(addresses)
        buckets = addresses >> _ROOT_SHIFT
        segments = self._first[buckets]
        if addresses.size:
            # binary descent, longest step first: as many steps as the
            # busiest bucket of this batch needs, for every address
            steps = int(self._span[buckets].max()).bit_length()
            for bit in reversed(range(steps)):
                ahead = segments + (1 << bit)
                segments = np.where(
                    self._padded[ahead] <= addresses, ahead, segments
                )
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
        self.prefixes = PrefixColumns()

    def __len__(self) -> int:
        return len(self.prefixes)

    def lookup(self, addresses: np.ndarray) -> np.ndarray:
        """Resolve a batch of addresses, growing the population as needed.

        A batch holding an address outside ``0..2**32 - 1`` raises
        :class:`~repro.errors.AddressError` and changes nothing.
        """
        networks = _ipv4_batch(addresses) >> self._shift
        rows = self._index.find(networks)
        unknown = np.flatnonzero(rows == ABSENT)
        if unknown.size:
            # new networks earn rows in sorted order per batch, so the
            # numbering depends on batch boundaries but not on packet
            # order within a batch
            fresh, inverse = np.unique(networks[unknown], return_inverse=True)
            base = len(self.prefixes)
            self.prefixes.extend(
                fresh << self._shift, np.full(fresh.size, self.length)
            )
            self._index.insert(
                fresh, np.arange(base, base + fresh.size, dtype=np.int64)
            )
            rows[unknown] = base + inverse
        return rows
