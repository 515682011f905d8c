"""Pipeline inputs: packet sources and slot sources.

The streaming pipeline consumes measurements at one of two altitudes:

- a :class:`PacketSource` yields :class:`PacketBatch` chunks — columnar
  numpy arrays of per-packet facts — which the aggregation stage bins
  into slots. Memory is bounded by the chunk size, never the capture
  length.
- a :class:`SlotSource` yields :class:`SlotFrame` objects — one slot's
  flow bandwidths at a time — which feed the classifier directly.

Adapters cover the workloads the repo already speaks: pcap capture
files (with a vectorized scan that never builds per-packet Python
objects), flow-record CSV exports and in-memory rate matrices.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Protocol, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import ClassificationError, PcapFormatError
from repro.flows.matrix import RateMatrix
from repro.net import ipv4
from repro.net.prefix import Prefix
from repro.pcap.pcapfile import (
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW_IP,
    PcapHeader,
    read_header,
)

#: Default packets per batch — the ingestion memory granule.
DEFAULT_CHUNK_PACKETS = 65536
#: Bytes read from disk per syscall while scanning captures.
READ_BLOCK_BYTES = 1 << 22

#: Byte offsets into the IPv4 fixed header.
_IP_TOTAL_LENGTH = 2
_IP_DESTINATION = 16
_IP_MIN_HEADER = 20
_ETHERTYPE_OFFSET = 12
_ETHERNET_HEADER = 14
_ETHERTYPE_IPV4 = 0x0800
#: Size of a pcap per-record header (ts_sec, ts_frac, incl_len, orig_len).
_RECORD_HEADER_BYTES = 16


def text_lines(path: str, what: str) -> Iterator[str]:
    """Lines of a text input file, read lazily.

    Text inputs come from outside the program: an unreadable path or
    bytes that are not UTF-8 — up front or a megabyte in — end in one
    ``cannot read`` :class:`~repro.errors.ClassificationError`, never a
    raw ``OSError``/``UnicodeDecodeError``.
    """
    try:
        with open(path) as stream:
            yield from stream
    except (OSError, UnicodeDecodeError) as exc:
        raise ClassificationError(
            f"cannot read {what} {path!r}: {exc}"
        ) from exc


@dataclass(frozen=True)
class PacketBatch:
    """A columnar chunk of packets: the three facts the pipeline keys
    and counts a packet by, as parallel arrays.

    ``timestamps`` are float64 seconds; ``destinations`` are int64
    IPv4 addresses, or flow keys already resolved (the shared-memory
    ring ships keys); ``wire_bytes`` are the packets' sizes on the wire
    (int64, or float from a float array source). Building a batch
    copies nothing, so columns can be ingested in place, straight out
    of a ring slot or a source's own arrays.

    ``packets_seen`` counts every capture record scanned for this batch,
    including non-IPv4 or too-truncated records that produced no row;
    the difference is :attr:`packets_skipped`.
    """

    timestamps: np.ndarray
    destinations: np.ndarray
    wire_bytes: np.ndarray
    packets_seen: int

    @property
    def num_packets(self) -> int:
        """Rows in this batch."""
        return self.timestamps.size

    @property
    def packets_skipped(self) -> int:
        """Records scanned but not representable as IPv4 packet rows."""
        return self.packets_seen - self.num_packets


class PacketSource(Protocol):
    """Anything that can stream packets as columnar batches.

    A source with a ``chunk_packets`` attribute yields batches of at
    most that many rows (ring slots are sized by it). A sampled source
    re-chunks what it keeps to that size, so its ``packets_seen`` is
    conserved over a run, not per batch of the source underneath.
    """

    def batches(self) -> Iterator[PacketBatch]:
        """Yield packet batches in capture (time) order."""
        ...


@dataclass(frozen=True)
class SlotFrame:
    """One completed measurement slot from a slot source.

    ``rates`` holds bits/second per flow; row ``i`` is flow
    ``population[i]``. ``population`` may be a *live* sequence that
    grows as later slots discover new flows — ``rates.size`` is the
    authoritative population size when this frame was emitted, and rows
    keep their position forever (flows are only appended).

    ``residual_row`` marks the row carrying *untracked* traffic when a
    bounded aggregation backend produced this frame: that row conserves
    the bytes of flows outside the sketch's candidate table and must
    never itself be classified as an elephant. ``None`` (the default)
    means every row is a real flow.

    ``sample_rate`` records the inversion factor already applied to
    this frame's byte counts by a sampling front-end (see
    :mod:`repro.pipeline.sampling`): rates are unbiased estimates of
    N x the observed traffic when it is N > 1. The classifier uses it
    to size its variance guard; 1.0 means a full packet stream.
    """

    slot: int
    start: float
    rates: np.ndarray
    population: Sequence[Prefix]
    residual_row: int | None = None
    sample_rate: float = 1.0

    @property
    def num_flows(self) -> int:
        """Population size at emission time."""
        return self.rates.size


class SlotSource(Protocol):
    """Anything that can stream completed slots in time order."""

    slot_seconds: float

    def slots(self) -> Iterator[SlotFrame]:
        """Yield slot frames with strictly increasing slot numbers."""
        ...


class PcapPacketSource:
    """Chunked, vectorized scan of a classic pcap capture file.

    The file is read a block at a time into one reusable ``uint8``
    buffer, so memory is a block plus a record however long the capture
    is. Every per-packet field (ethertype, IPv4 version, destination,
    wire size) comes out of a numpy structured view of record headers.
    After each refill one vector compare finds how many of the buffered
    records, from the first, claim the captured length the first claims
    — any snaplen-truncated monitor capture is one such run — and a run
    is a strided view of the buffer, record ``i`` at ``i × stride``,
    read in place. Past a run, the record chain is chased, one header
    unpack and one list append per record, and the fields of the
    records it found are gathered into a compact copy. Each batch holds
    exactly ``chunk_packets`` records (the last one fewer), so a run or
    a chase is cut where a batch fills.

    Non-IPv4 frames and records too truncated to carry an IPv4 fixed
    header are counted and skipped rather than raised — a monitor keeps
    running when an LLDP frame goes by. A record that claims more bytes
    than the snaplen (or, when that is 0 or larger, than libpcap's own
    record limit) fails at that record, before anything is buffered for
    it.
    """

    def __init__(
        self, path: str, chunk_packets: int = DEFAULT_CHUNK_PACKETS
    ) -> None:
        if chunk_packets < 1:
            raise ClassificationError("chunk_packets must be >= 1")
        self.path = path
        self.chunk_packets = chunk_packets

    def batches(self) -> Iterator[PacketBatch]:
        with open(self.path, "rb") as stream:
            header = read_header(stream)
            if header.linktype not in (LINKTYPE_ETHERNET, LINKTYPE_RAW_IP):
                raise PcapFormatError(f"unsupported linktype {header.linktype}")
            layout = _RecordLayout(header)
            limit = header.record_limit
            claim = struct.Struct(header.byte_order + "I").unpack_from
            # unread records are buffer[start:end]; a refill moves what
            # is left — less than a record — to the front and reads a
            # block after it
            block = READ_BLOCK_BYTES
            buffer = np.empty(block + _RECORD_HEADER_BYTES + limit, np.uint8)
            start = end = 0
            run = stride = 0  # whole records at `start`, `stride` apart
            pieces: list[PacketBatch] = []
            seen = 0
            eof = False
            while True:
                room = self.chunk_packets - seen
                if run:
                    take = min(run, room)
                    pieces.append(layout.run(buffer, start, take, stride))
                    start += take * stride
                    run -= take
                else:
                    # Chase the record chain as far as the buffer allows
                    # (mixed-length captures, and whatever follows a
                    # run). This loop is the only per-record Python work
                    # in the whole ingestion path — keep its body
                    # minimal. A corrupt length fails here, at its
                    # record, not after buffering the rest of the file.
                    starts: list[int] = []
                    last = end - _RECORD_HEADER_BYTES  # last header start
                    while len(starts) < room and start <= last:
                        (incl,) = claim(buffer, start + 8)
                        if incl > limit:
                            raise header.oversized(incl)
                        if start + _RECORD_HEADER_BYTES + incl > end:
                            break
                        starts.append(start)
                        start += _RECORD_HEADER_BYTES + incl
                    if starts:
                        pieces.append(layout.gather(buffer, starts, start))
                    take = len(starts)
                seen += take
                if seen == self.chunk_packets:
                    yield _joined(pieces)
                    pieces, seen = [], 0
                if take:
                    continue
                # no whole record left in the buffer
                if eof:
                    if start + _RECORD_HEADER_BYTES <= end:
                        raise PcapFormatError("truncated pcap record body")
                    if start < end:
                        raise PcapFormatError("truncated pcap record header")
                    if pieces:
                        yield _joined(pieces)
                    return
                end -= start
                buffer[:end] = buffer[start : start + end]
                start = 0
                read = stream.readinto(memoryview(buffer)[end : end + block])
                eof = not read
                end += read
                run, stride = _equal_run(buffer, end, header.byte_order, limit)


class _RecordLayout:
    """Where a capture's record fields sit, as numpy structured dtypes.

    Offsets are from the start of a record header; the IP fields follow
    the link header the linktype implies. :meth:`run` reads an
    equal-length run in place, through a dtype as wide as its stride;
    :meth:`gather` copies the first bytes of each chased record out, so
    a record shorter than them reads on into what follows it (zeros
    after the last) — no field past its captured length is used.
    """

    def __init__(self, header: PcapHeader) -> None:
        self.ethernet = header.linktype == LINKTYPE_ETHERNET
        self.overhead = _ETHERNET_HEADER if self.ethernet else 0
        self.divisor = 1e9 if header.nanosecond else 1e6
        ip = _RECORD_HEADER_BYTES + self.overhead
        self.width = ip + _IP_MIN_HEADER
        word = header.byte_order + "u4"
        fields = {
            "seconds": (word, 0),
            "fractions": (word, 4),
            "captured": (word, 8),
            "original": (word, 12),
            "version": ("u1", ip),
            "total_length": (">u2", ip + _IP_TOTAL_LENGTH),
            "destination": (">u4", ip + _IP_DESTINATION),
        }
        if self.ethernet:
            fields["ethertype"] = (">u2", _RECORD_HEADER_BYTES + 12)
        self.fields = fields

    def dtype(self, itemsize: int) -> np.dtype:
        return np.dtype(
            {
                "names": list(self.fields),
                "formats": [kind for kind, _ in self.fields.values()],
                "offsets": [at for _, at in self.fields.values()],
                "itemsize": itemsize,
            }
        )

    def run(
        self, buffer: np.ndarray, start: int, count: int, stride: int
    ) -> PacketBatch:
        """The ``count`` records from ``start``, ``stride`` bytes apart."""
        stop = start + count * stride
        if stride < self.width:  # the fields reach past each record
            return self.gather(buffer, range(start, stop, stride), stop)
        return self.columns(buffer[start:stop].view(self.dtype(stride)))

    def gather(
        self, buffer: np.ndarray, starts: Sequence[int], stop: int
    ) -> PacketBatch:
        """The records at ``starts``, all in ``buffer[:stop]``."""
        first = starts[0]
        raw = np.zeros(stop - first + self.width, dtype=np.uint8)
        raw[: stop - first] = buffer[first:stop]
        rows = np.array(starts, dtype=np.int64) - first
        heads = sliding_window_view(raw, self.width)[rows]
        return self.columns(heads.view(self.dtype(self.width))[:, 0])

    def columns(self, records: np.ndarray) -> PacketBatch:
        """The batch of ``records``, whose fields may be views of the
        read buffer: every column is computed into a new array."""
        seen = records.size
        keep = records["captured"] >= self.overhead + _IP_MIN_HEADER
        if self.ethernet:
            keep &= records["ethertype"] == _ETHERTYPE_IPV4
        keep &= records["version"] >> 4 == 4
        if not keep.all():
            records = records[keep]
        seconds, fractions = records["seconds"], records["fractions"]
        original, captured = records["original"], records["captured"]
        wire = records["total_length"].astype(np.int64) + self.overhead
        return PacketBatch(
            timestamps=seconds + fractions / self.divisor,
            destinations=records["destination"].astype(np.int64),
            wire_bytes=np.where(original > captured, original, wire),
            packets_seen=seen,
        )


def _joined(pieces: list[PacketBatch]) -> PacketBatch:
    """One batch of ``pieces``, read in that order."""
    if len(pieces) == 1:
        return pieces[0]
    return PacketBatch(
        *(
            np.concatenate([getattr(piece, name) for piece in pieces])
            for name in ("timestamps", "destinations", "wire_bytes")
        ),
        packets_seen=sum(piece.packets_seen for piece in pieces),
    )


def row_batches(
    rows: Iterable[tuple[float, int, int]], chunk_packets: int
) -> Iterator[PacketBatch]:
    """Parsed ``(timestamp, destination, wire_bytes)`` rows as batches of
    ``chunk_packets`` rows (the last fewer), each row one packet seen:
    the chunking of every source that parses text a row at a time."""
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, chunk_packets)):
        timestamps, destinations, sizes = zip(*chunk)
        yield PacketBatch(
            np.array(timestamps, dtype=np.float64),
            np.array(destinations, dtype=np.int64),
            np.array(sizes, dtype=np.int64),
            packets_seen=len(chunk),
        )


def _equal_run(
    buffer: np.ndarray, end: int, order: str, limit: int
) -> tuple[int, int]:
    """``(count, stride)`` of the whole records at the front of
    ``buffer[:end]`` that each claim the captured length the first
    claims (``(0, 0)`` if none).

    The claims of an equal-length run are one strided column of the
    buffer; the first that differs is a real record's, where the run
    ends. An over-limit first claim is no run: the chase raises it.
    """
    if end < _RECORD_HEADER_BYTES:
        return 0, 0
    (incl,) = np.ndarray((1,), order + "u4", buffer, 8).tolist()
    stride = _RECORD_HEADER_BYTES + incl
    if incl > limit:
        return 0, 0
    whole = end // stride
    claims = np.ndarray((whole,), order + "u4", buffer, 8, (stride,))
    differs = np.flatnonzero(claims != incl)
    return (int(differs[0]) if differs.size else whole), stride


class CsvPacketSource:
    """Packet CSV: one ``timestamp,destination,wire_bytes`` row per
    packet (or pre-aggregated record), destination as dotted quad or
    integer. A header row starting with ``timestamp`` is skipped. This
    is the interchange format exported by flow collectors that have
    already shed payloads. A row that does not parse, an integer
    destination outside the IPv4 range, or a size outside [0, 2**63)
    is one :class:`~repro.errors.ClassificationError` naming its line.
    """

    def __init__(self, path: str, chunk_packets: int = DEFAULT_CHUNK_PACKETS) -> None:
        if chunk_packets < 1:
            raise ClassificationError("chunk_packets must be >= 1")
        self.path = path
        self.chunk_packets = chunk_packets

    def batches(self) -> Iterator[PacketBatch]:
        return row_batches(self._rows(), self.chunk_packets)

    def _rows(self) -> Iterator[tuple[float, int, int]]:
        lines = text_lines(self.path, "capture")
        for number, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith("timestamp"):
                continue
            cells = line.split(",")
            try:
                if len(cells) < 3:
                    raise ValueError("a packet row needs 3 columns")
                timestamp, size = float(cells[0]), int(cells[2])
                if not 0 <= size < 2**63:
                    raise ValueError(f"wire size {size} not in [0, 2**63)")
                destination = cells[1].strip()
                if "." in destination:
                    address = ipv4.parse_ipv4(destination)
                else:
                    address = int(destination)
                    if not 0 <= address <= ipv4.MAX_ADDRESS:
                        raise ValueError(f"{address} is not an IPv4 address")
            except ValueError as exc:  # AddressError is one too
                raise ClassificationError(
                    f"packet CSV {self.path!r} line {number}: {exc}"
                ) from exc
            yield timestamp, address, size


class ArrayPacketSource:
    """An in-memory packet source over parallel per-packet arrays.

    The columnar twin of a recorded capture: callers supply
    timestamps, destinations and wire sizes and get standard chunked
    batches back, each a view of the arrays. Integer sizes are
    held as int64, so a sampler's inversion cannot wrap a compact
    column; float sizes stay float. Being a plain bundle of arrays it
    pickles cheaply, which makes it the packet source of choice for
    feeding synthetic traffic to worker processes in tests and
    benchmarks.
    """

    def __init__(
        self,
        timestamps: np.ndarray,
        destinations: np.ndarray,
        wire_bytes: np.ndarray,
        chunk_packets: int = DEFAULT_CHUNK_PACKETS,
    ) -> None:
        if chunk_packets < 1:
            raise ClassificationError("chunk_packets must be >= 1")
        timestamps = np.asarray(timestamps, dtype=np.float64)
        destinations = np.asarray(destinations, dtype=np.int64)
        wire_bytes = np.asarray(wire_bytes)
        if wire_bytes.dtype.kind in "iu":
            wire_bytes = wire_bytes.astype(np.int64, copy=False)
        if not (timestamps.size == destinations.size == wire_bytes.size):
            raise ClassificationError("packet arrays must be parallel (equal length)")
        self.timestamps = timestamps
        self.destinations = destinations
        self.wire_bytes = wire_bytes
        self.chunk_packets = chunk_packets

    @property
    def num_packets(self) -> int:
        """Packets this source will emit."""
        return self.timestamps.size

    def batches(self) -> Iterator[PacketBatch]:
        for lo in range(0, self.num_packets, self.chunk_packets):
            hi = min(lo + self.chunk_packets, self.num_packets)
            yield PacketBatch(
                self.timestamps[lo:hi],
                self.destinations[lo:hi],
                self.wire_bytes[lo:hi],
                packets_seen=hi - lo,
            )


class MatrixSlotSource:
    """Stream the columns of an in-memory rate matrix.

    The population is static, so every frame shares the matrix's prefix
    list and full flow count — this is the adapter that lets any batch
    artefact replay through the streaming path.
    """

    def __init__(self, matrix: RateMatrix) -> None:
        self.matrix = matrix
        self.slot_seconds = matrix.axis.slot_seconds

    def slots(self) -> Iterator[SlotFrame]:
        axis = self.matrix.axis
        for slot in range(axis.num_slots):
            yield SlotFrame(
                slot=slot,
                start=axis.slot_start(slot),
                rates=self.matrix.rates[:, slot],
                population=self.matrix.prefixes,
            )
