"""Flow-record interchange in the floodns ``flow_info.csv`` shape.

The pipeline's native inputs are packet captures, but most operational
traffic data arrives as *flow records*: NetFlow exports, simulator
output, or another monitor's per-slot accounting. This module speaks
the floodns ``flow_info.csv`` column set (SNIPPETS.md snippet 2)::

    flow_id,source_node_id,dest_node_id,path,start_time,end_time,
    duration,amount_sent,average_bandwidth,metadata

Times are integer nanoseconds, ``amount_sent`` is in raw units (bytes
here), and ``average_bandwidth`` is Gbit/s — which for ns timestamps
is simply bits per nanosecond. ``duration`` and ``average_bandwidth``
are derived columns: they are recomputed on write and ignored on read,
so a write → read round trip reproduces the stored fields exactly
(the Hypothesis property suite asserts this, metadata included).

Three entry points:

- :func:`read_flow_records` / :func:`write_flow_records` — the record
  layer: lists of :class:`FlowInfoRecord`.
- :class:`FlowRecordSource` — a
  :class:`~repro.pipeline.sources.PacketSource` over a flow-record
  CSV: each record becomes one pre-aggregated "packet" row stamped at
  the record's start time, exactly like the NetFlow flow-records
  sampling mode emits, so a CSV can drive the streaming pipeline
  anywhere a pcap can.
- :func:`slot_flow_records` — the export side: one record per
  (flow, slot) from a classified
  :class:`~repro.pipeline.sources.SlotFrame`, which is what
  ``repro stream --flow-csv-out`` writes. Replaying such an export
  through :class:`FlowRecordSource` on the same slot grid reproduces
  the original run's per-slot elephants (asserted in the integration
  suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from repro.errors import ClassificationError
from repro.net import ipv4

if TYPE_CHECKING:  # repro.pipeline sits above the flows layer
    from repro.pipeline.sources import PacketBatch, SlotFrame

#: Nanoseconds per second — the CSV's clock against the pipeline's.
NS_PER_SECOND = 1_000_000_000

#: Default rows per emitted batch (the pipeline's ingestion granule;
#: kept equal to ``repro.pipeline.sources.DEFAULT_CHUNK_PACKETS``).
DEFAULT_CHUNK_RECORDS = 65536

#: Column order of a ``flow_info.csv`` row.
FLOW_INFO_COLUMNS = (
    "flow_id",
    "source_node_id",
    "dest_node_id",
    "path",
    "start_time",
    "end_time",
    "duration",
    "amount_sent",
    "average_bandwidth",
    "metadata",
)


@dataclass(frozen=True)
class FlowInfoRecord:
    """One ``flow_info.csv`` row: a flow's lifetime byte accounting.

    ``start_time``/``end_time`` are integer nanoseconds (floodns
    convention — ns integers survive CSV exactly where float seconds
    would not), ``amount_sent`` is bytes. ``path`` and ``metadata``
    are free text minus the CSV structural characters; this repo's
    exports put the flow's prefix in ``metadata`` and leave ``path``
    empty.
    """

    flow_id: int
    source_node_id: int
    dest_node_id: int
    path: str
    start_time: int
    end_time: int
    amount_sent: int
    metadata: str = ""

    def __post_init__(self) -> None:
        if self.flow_id < 0:
            raise ClassificationError("flow_id must be >= 0")
        if self.source_node_id < 0 or self.dest_node_id < 0:
            raise ClassificationError("node ids must be >= 0")
        if self.end_time < self.start_time:
            raise ClassificationError(
                f"flow {self.flow_id}: end_time {self.end_time} before "
                f"start_time {self.start_time}"
            )
        if self.amount_sent < 0:
            raise ClassificationError("amount_sent must be >= 0")
        for label, text in (("path", self.path),
                            ("metadata", self.metadata)):
            if any(ch in text for ch in (",", "\n", "\r")):
                raise ClassificationError(
                    f"{label} must not contain commas or newlines: "
                    f"{text!r}"
                )

    @property
    def duration(self) -> int:
        """Flow duration in nanoseconds (derived)."""
        return self.end_time - self.start_time

    @property
    def average_bandwidth(self) -> float:
        """Average bandwidth in Gbit/s (bits per ns; derived).

        Zero-duration flows report 0.0 — floodns never emits them, but
        a single-packet export can.
        """
        if self.duration == 0:
            return 0.0
        return self.amount_sent * 8.0 / self.duration


def write_flow_records(
    path: str, records: Iterable[FlowInfoRecord]
) -> int:
    """Write ``records`` as a ``flow_info.csv`` file; returns the count.

    A header row naming the columns is written first (readers here and
    in floodns tooling skip it); ``duration`` and
    ``average_bandwidth`` are recomputed from the stored fields.
    """
    count = 0
    try:
        stream = open(path, "w")
    except OSError as exc:
        raise ClassificationError(
            f"cannot write flow records to {path!r}: {exc}"
        ) from exc
    with stream:
        stream.write(",".join(FLOW_INFO_COLUMNS) + "\n")
        for record in records:
            stream.write(
                f"{record.flow_id},{record.source_node_id},"
                f"{record.dest_node_id},{record.path},"
                f"{record.start_time},{record.end_time},"
                f"{record.duration},{record.amount_sent},"
                f"{record.average_bandwidth!r},{record.metadata}\n"
            )
            count += 1
    return count


def _parse_node(cell: str) -> int:
    """A node id: an integer, or a dotted quad from address-keyed
    exports."""
    cell = cell.strip()
    if "." in cell:
        return ipv4.parse_ipv4(cell)
    return int(cell)


def _parse_row(line: str, where: str) -> FlowInfoRecord:
    cells = line.split(",")
    if len(cells) != len(FLOW_INFO_COLUMNS):
        raise ClassificationError(
            f"{where}: flow_info row needs "
            f"{len(FLOW_INFO_COLUMNS)} columns, got {len(cells)}: "
            f"{line!r}"
        )
    try:
        return FlowInfoRecord(
            flow_id=int(cells[0]),
            source_node_id=_parse_node(cells[1]),
            dest_node_id=_parse_node(cells[2]),
            path=cells[3].strip(),
            start_time=int(cells[4]),
            end_time=int(cells[5]),
            # cells[6] (duration) and cells[8] (average_bandwidth) are
            # derived columns; recomputed, never trusted
            amount_sent=int(cells[7]),
            metadata=cells[9].strip(),
        )
    except ValueError as exc:
        raise ClassificationError(
            f"{where}: bad flow_info row {line!r}: {exc}"
        ) from exc


def _iter_rows(path: str) -> Iterator[FlowInfoRecord]:
    # imported here: repro.pipeline sits above the flows layer
    from repro.pipeline.sources import text_lines

    lines = text_lines(path, "flow records")
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("flow_id"):
            continue
        yield _parse_row(line, f"{path}:{number}")


def read_flow_records(path: str) -> list[FlowInfoRecord]:
    """Read a ``flow_info.csv`` file back into records.

    The header row (if present) is skipped; derived columns are
    ignored in favour of recomputation, so
    ``read_flow_records(write_flow_records(...))`` is the identity on
    the stored fields.
    """
    return list(_iter_rows(path))


class FlowRecordSource:
    """A :class:`~repro.pipeline.sources.PacketSource` over a
    ``flow_info.csv`` export.

    Each record becomes one pre-aggregated packet row — timestamp
    ``start_time / 1e9`` seconds, destination ``dest_node_id``, size
    ``amount_sent`` — mirroring what the flow-records sampling mode
    emits from live captures. Rows are chunked like every other packet
    source, so memory stays bounded by ``chunk_packets`` however large
    the export is. Records must be sorted by ``start_time`` (floodns
    writes them that way; the aggregator requires time order).
    """

    def __init__(
        self, path: str, chunk_packets: int = DEFAULT_CHUNK_RECORDS
    ) -> None:
        if chunk_packets < 1:
            raise ClassificationError("chunk_packets must be >= 1")
        self.path = path
        self.chunk_packets = chunk_packets

    def batches(self) -> Iterator["PacketBatch"]:
        timestamps: list[float] = []
        sources: list[int] = []
        destinations: list[int] = []
        sizes: list[int] = []
        for record in _iter_rows(self.path):
            timestamps.append(record.start_time / NS_PER_SECOND)
            sources.append(record.source_node_id)
            destinations.append(record.dest_node_id)
            sizes.append(record.amount_sent)
            if len(timestamps) >= self.chunk_packets:
                yield self._build(
                    timestamps, sources, destinations, sizes
                )
                timestamps, sources = [], []
                destinations, sizes = [], []
        if timestamps:
            yield self._build(timestamps, sources, destinations, sizes)

    @staticmethod
    def _build(
        timestamps: list[float],
        sources: list[int],
        destinations: list[int],
        sizes: list[int],
    ) -> "PacketBatch":
        from repro.pipeline.sources import PacketBatch, zero_column

        return PacketBatch(
            timestamps=np.array(timestamps, dtype=np.float64),
            sources=np.array(sources, dtype=np.int64),
            destinations=np.array(destinations, dtype=np.int64),
            protocols=zero_column(len(timestamps)),
            wire_bytes=np.array(sizes, dtype=np.int64),
            packets_seen=len(timestamps),
        )


def slot_flow_records(
    frame: "SlotFrame",
    slot_seconds: float,
    first_flow_id: int = 0,
) -> list[FlowInfoRecord]:
    """One record per active flow in a classified slot.

    The export convention behind ``repro stream --flow-csv-out``: a
    flow carrying traffic in a slot becomes one record spanning that
    slot, ``amount_sent = rate x slot / 8`` bytes (rounded),
    ``dest_node_id`` the prefix's network address, and the prefix text
    in ``metadata``. The residual accounting row of sketch-bounded
    frames is skipped — it is unattributable mass, not a flow; the
    exported file covers the *tracked* traffic only. Replaying the
    export through :class:`FlowRecordSource` on the same slot grid and
    flow granularity reproduces the per-slot rates (up to sub-byte
    rounding) and therefore the elephant verdicts.
    """
    start_ns = round(frame.start * NS_PER_SECOND)
    end_ns = start_ns + round(slot_seconds * NS_PER_SECOND)
    records = []
    for row in np.flatnonzero(frame.rates > 0.0).tolist():
        if row == frame.residual_row:
            continue
        prefix = frame.population[row]
        amount = round(float(frame.rates[row]) * slot_seconds / 8.0)
        records.append(
            FlowInfoRecord(
                flow_id=first_flow_id + len(records),
                source_node_id=0,
                dest_node_id=prefix.network,
                path="",
                start_time=start_ns,
                end_time=end_ns,
                amount_sent=amount,
                metadata=str(prefix),
            )
        )
    return records


__all__ = [
    "FLOW_INFO_COLUMNS",
    "FlowInfoRecord",
    "FlowRecordSource",
    "NS_PER_SECOND",
    "read_flow_records",
    "slot_flow_records",
    "write_flow_records",
]
