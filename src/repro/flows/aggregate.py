"""Packets → prefix-flow bandwidths.

This is the measurement front-end the paper's monitoring infrastructure
performed: every captured packet is mapped to its BGP destination prefix
by longest-prefix match, and byte counts are accumulated per prefix per
measurement slot. Dividing by the slot length yields ``x_i(t)``.

:class:`FlowAggregator` is the per-packet reference: one radix lookup
and one dict probe per packet over a fixed axis, plus a per-flow
:class:`~repro.flows.records.FlowRecord` ledger. It is the one oracle
the suite holds the streaming pipeline to. :func:`aggregate_pcap` is
the batch entry point and a thin wrapper over that pipeline — the
chunked capture scan feeding a
:class:`~repro.pipeline.aggregator.StreamingAggregator` — so there is
one vectorized aggregation path, not two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.errors import ClassificationError
from repro.flows.matrix import RateMatrix
from repro.flows.records import FlowRecord, TimeAxis

if TYPE_CHECKING:
    from repro.net.prefix import Prefix
    from repro.pcap.packet import PacketSummary
    from repro.routing.rib import RoutingTable


@dataclass
class AggregationStats:
    """Bookkeeping from one aggregation run."""

    packets_seen: int = 0
    packets_matched: int = 0
    packets_unrouted: int = 0
    packets_outside_axis: int = 0
    packets_skipped: int = 0
    bytes_matched: int = 0

    @property
    def match_rate(self) -> float:
        """Fraction of packets that resolved to a prefix."""
        if self.packets_seen == 0:
            return 0.0
        return self.packets_matched / self.packets_seen


@dataclass
class FlowAggregator:
    """Accumulate packet summaries into per-prefix, per-slot byte counts.

    Flows are keyed by the longest-matching RIB prefix. Packets whose
    destination has no route, or whose timestamp falls outside the axis,
    are counted in :attr:`stats` but otherwise dropped — exactly what a
    passive monitor does with unroutable traffic.
    """

    table: RoutingTable
    axis: TimeAxis
    stats: AggregationStats = field(default_factory=AggregationStats)

    def __post_init__(self) -> None:
        self._bytes: dict[Prefix, np.ndarray] = {}
        self._records: dict[Prefix, FlowRecord] = {}

    def add(self, packet: PacketSummary) -> bool:
        """Account one packet; returns ``True`` if it was matched."""
        self.stats.packets_seen += 1
        if not (self.axis.start <= packet.timestamp < self.axis.end):
            self.stats.packets_outside_axis += 1
            return False
        route = self.table.resolve(packet.destination)
        if route is None:
            self.stats.packets_unrouted += 1
            return False
        prefix = route.prefix
        slot = self.axis.slot_of(packet.timestamp)
        if prefix not in self._bytes:
            self._bytes[prefix] = np.zeros(self.axis.num_slots)
            self._records[prefix] = FlowRecord(prefix)
        self._bytes[prefix][slot] += packet.wire_bytes
        self._records[prefix].add_packet(packet.timestamp, packet.wire_bytes)
        self.stats.packets_matched += 1
        self.stats.bytes_matched += packet.wire_bytes
        return True

    def add_all(self, packets: Iterable[PacketSummary]) -> int:
        """Account a stream of packets; returns the matched count."""
        matched = 0
        for packet in packets:
            if self.add(packet):
                matched += 1
        return matched

    def flow_records(self) -> list[FlowRecord]:
        """Per-flow accounting records, sorted by prefix."""
        return [self._records[p] for p in sorted(self._records)]

    def to_rate_matrix(self, include_all_routes: bool = False) -> RateMatrix:
        """Finish aggregation and emit the rate matrix (bits/second).

        With ``include_all_routes`` every RIB prefix gets a row (all-zero
        when it never received traffic), which matches the fluid
        simulator's convention of stable flow identity; otherwise only
        prefixes that actually received packets appear.
        """
        if include_all_routes:
            prefixes = self.table.prefixes()
        else:
            prefixes = sorted(self._bytes)
        if not prefixes:
            raise ClassificationError("no flows to build a matrix from")
        rates = np.zeros((len(prefixes), self.axis.num_slots))
        for row, prefix in enumerate(prefixes):
            counts = self._bytes.get(prefix)
            if counts is not None:
                rates[row, :] = counts * 8.0 / self.axis.slot_seconds
        return RateMatrix(list(prefixes), self.axis, rates)


def aggregate_pcap(
    path: str,
    table: RoutingTable,
    axis: TimeAxis,
    chunk_packets: int = 65536,
) -> tuple[RateMatrix, AggregationStats]:
    """Read a pcap file and aggregate it into a rate matrix on ``axis``.

    A thin wrapper over the streaming pipeline: the chunked columnar
    capture scan feeds a streaming aggregator pinned to the caller's
    grid, and the emitted slot frames are laid out as a matrix with one
    row per prefix that carried bytes, sorted by prefix — the matrix
    and stats :class:`FlowAggregator` produces packet by packet on a
    chronological capture. Memory during the scan stays bounded by
    ``chunk_packets`` however long the capture is; non-IPv4 frames are
    counted in ``stats.packets_skipped``.
    """
    # Imported here: repro.pipeline sits above the flows layer.
    from repro.pipeline.aggregator import StreamingAggregator
    from repro.pipeline.sources import PacketBatch, PcapPacketSource

    aggregator = StreamingAggregator(
        table, slot_seconds=axis.slot_seconds, start=axis.start
    )
    stats = aggregator.stats
    frames = []
    for batch in PcapPacketSource(path, chunk_packets).batches():
        in_axis = batch.timestamps < axis.end
        late = batch.num_packets - int(in_axis.sum())
        if late:
            # A stream has a start but no end: packets past the
            # caller's axis are turned away here, before they can open
            # slots the matrix has no column for.
            batch = PacketBatch(
                timestamps=batch.timestamps[in_axis],
                sources=batch.sources[in_axis],
                destinations=batch.destinations[in_axis],
                protocols=batch.protocols[in_axis],
                wire_bytes=batch.wire_bytes[in_axis],
                packets_seen=batch.packets_seen - late,
            )
            stats.packets_seen += late
            stats.packets_outside_axis += late
        frames.extend(aggregator.ingest(batch))
    frames.extend(aggregator.finish())

    prefixes = aggregator.prefixes
    if not prefixes:
        raise ClassificationError("no flows to build a matrix from")
    rates = np.zeros((len(prefixes), axis.num_slots))
    for frame in frames:
        rates[: frame.num_flows, frame.slot] = frame.rates
    order = np.argsort(prefixes.keys())  # keys sort as prefixes do
    matrix = RateMatrix(list(prefixes[order]), axis, rates[order])
    return matrix, stats
