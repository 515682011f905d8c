"""Packet-stream partitioners: emulate a monitor fleet from one trace.

Real multi-monitor input is N taps on N capture devices. For tests,
benchmarks and examples we make the fleet from a single capture:
:class:`StridedPacketSource` deals packets round-robin (packet ``i``
goes to monitor ``i % stride``), the worst case for any single
monitor's view — every flow is diluted at every monitor, so nothing is
detectable locally that isn't also detectable merged. Splitting by flow
hash instead is already covered one layer down by
:class:`~repro.pipeline.sharded.ShardedAggregation`.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import ClassificationError
from repro.pipeline.sources import PacketBatch, PacketSource


class StridedPacketSource:
    """Every ``stride``-th packet of a source, starting at ``offset``.

    The ``stride`` monitors built over one source (offsets ``0 ..
    stride - 1``) partition its packets exactly: each packet appears at
    exactly one monitor, in the original order. Batch boundaries are
    preserved; a batch may come out empty for a monitor, which the
    aggregator handles as silence.
    """

    def __init__(
        self, source: PacketSource, stride: int, offset: int
    ) -> None:
        if stride < 1:
            raise ClassificationError("stride must be >= 1")
        if not 0 <= offset < stride:
            raise ClassificationError(f"offset {offset} outside 0..{stride - 1}")
        self.source = source
        self.stride = stride
        self.offset = offset

    def batches(self) -> Iterator[PacketBatch]:
        position = 0
        skip_position = 0
        for batch in self.source.batches():
            count = batch.num_packets
            index = np.arange(position, position + count)
            position += count
            keep = (index % self.stride) == self.offset
            # Records the upstream source scanned but could not emit as
            # rows (non-IPv4, truncated) are dealt round-robin too, so
            # packets_seen keeps its contract — summed over the fleet
            # it equals the capture's scanned-record count, and
            # packets_skipped does not silently read 0.
            skipped = batch.packets_skipped
            skip_index = np.arange(skip_position, skip_position + skipped)
            skip_position += skipped
            my_skipped = int(((skip_index % self.stride) == self.offset).sum())
            yield PacketBatch(
                batch.timestamps[keep],
                batch.destinations[keep],
                batch.wire_bytes[keep],
                packets_seen=int(keep.sum()) + my_skipped,
            )


__all__ = ["StridedPacketSource"]
