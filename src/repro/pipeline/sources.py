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
objects), flow-record CSV exports, in-memory rate matrices, and the
synthetic link scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Protocol, Sequence

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
_IP_PROTOCOL = 9
_IP_SOURCE = 12
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


def zero_column(count: int) -> np.ndarray:
    """``count`` int64 zeros in eight bytes (a zero-stride read-only
    view), for a column a source has no facts for and nothing reads."""
    return np.broadcast_to(np.int64(0), (count,))


@dataclass(frozen=True)
class PacketBatch:
    """A columnar chunk of packets: parallel per-packet fact arrays.

    ``packets_seen`` counts every capture record scanned for this batch,
    including non-IPv4 or too-truncated records that produced no row;
    the difference is :attr:`packets_skipped`.
    """

    timestamps: np.ndarray
    sources: np.ndarray
    destinations: np.ndarray
    protocols: np.ndarray
    wire_bytes: np.ndarray
    packets_seen: int

    @classmethod
    def of_flows(
        cls, timestamps: np.ndarray, keys: np.ndarray, wire_bytes: np.ndarray
    ) -> "PacketBatch":
        """A batch of the three columns the aggregation path reads.

        ``keys`` are destinations, or flow keys already resolved (the
        shared-memory ring ships only these three columns). The unused
        source/protocol columns are zero-stride views, so building the
        batch allocates nothing — the columns can be ingested in place,
        straight out of a ring slot or a source's own arrays.
        """
        zeros = zero_column(timestamps.size)
        return cls(
            timestamps=timestamps,
            sources=zeros,
            destinations=keys,
            protocols=zeros,
            wire_bytes=wire_bytes,
            packets_seen=timestamps.size,
        )

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

    Every per-packet field (ethertype check, IPv4 version, destination,
    wire size) is extracted with numpy from an ``(n, width)`` matrix of
    the chunk's record headers. Where the records a buffer refill holds
    all captured the same number of bytes — any snaplen-truncated
    monitor capture — one vector compare shows them a constant stride
    apart and the matrix is a reshape; otherwise the record chain is
    chased, one header unpack and one list append per record. Non-IPv4
    frames and records too truncated to carry an IPv4 fixed header are
    counted and skipped rather than raised — a monitor keeps running
    when an LLDP frame goes by.
    """

    def __init__(self, path: str, chunk_packets: int = DEFAULT_CHUNK_PACKETS) -> None:
        if chunk_packets < 1:
            raise ClassificationError("chunk_packets must be >= 1")
        self.path = path
        self.chunk_packets = chunk_packets

    def batches(self) -> Iterator[PacketBatch]:
        with open(self.path, "rb") as stream:
            header = read_header(stream)
            if header.linktype not in (LINKTYPE_ETHERNET, LINKTYPE_RAW_IP):
                raise PcapFormatError(f"unsupported linktype {header.linktype}")
            byte_order = "little" if header.byte_order == "<" else "big"
            # Reject over-snaplen lengths inside the chase loop: a
            # corrupt length field must fail at that record, not after
            # buffering the rest of the file hunting for its "end".
            max_captured = header.snaplen if header.snaplen > 0 else 0x7FFFFFFF
            buffer = bytearray()  # += extends in place, no quadratic copy
            position = 0
            # record-header offsets into buffer: a list while chasing,
            # a range when the whole batch is one equal-length run
            pending: list[int] | range = []
            run = stride = 0  # whole records at `position`, `stride` apart
            eof = False
            from_bytes = int.from_bytes  # the one call per record
            while True:
                want = self.chunk_packets
                room = want - len(pending)
                if run >= room or (run and eof):
                    take = min(run, room)
                    span = range(position, position + take * stride, stride)
                    position, run = span.stop, run - take
                    if pending or take < want:
                        pending.extend(span)
                    else:
                        pending = span
                # Chase the record chain as far as the buffer allows
                # (mixed-length captures, and whatever follows a run).
                # This loop is the only per-record Python work in the
                # whole ingestion path — keep its body minimal.
                limit = len(buffer) - _RECORD_HEADER_BYTES
                while not run and len(pending) < want and position <= limit:
                    incl = from_bytes(buffer[position + 8 : position + 12], byte_order)
                    if incl > max_captured:
                        raise PcapFormatError(
                            f"record claims {incl} bytes, above snaplen "
                            f"{header.snaplen}"
                        )
                    jump = position + _RECORD_HEADER_BYTES + incl
                    if jump > len(buffer):
                        break
                    pending.append(position)
                    position = jump
                if len(pending) >= want:
                    yield self._emit(buffer, position, pending, header)
                    del buffer[:position]
                    position = 0
                    pending = []
                    continue
                if eof:
                    if position + _RECORD_HEADER_BYTES <= len(buffer):
                        raise PcapFormatError("truncated pcap record body")
                    if position < len(buffer):
                        raise PcapFormatError("truncated pcap record header")
                    if pending:
                        yield self._emit(buffer, position, pending, header)
                    return
                block = stream.read(READ_BLOCK_BYTES)
                eof = not block
                buffer += block
                # One compare per refill: are the whole records now held
                # an equal-length run? (At EOF, the same answer again.)
                run, stride = _equal_run(
                    buffer, position, header.byte_order, max_captured
                )

    @staticmethod
    def _emit(
        buffer: bytearray, end: int, starts: list[int] | range, header: PcapHeader
    ) -> PacketBatch:
        """The batch of the records at ``starts``, all in ``buffer[:end]``."""
        ethernet = header.linktype == LINKTYPE_ETHERNET
        overhead = _ETHERNET_HEADER if ethernet else 0
        ip = _RECORD_HEADER_BYTES + overhead
        width = ip + _IP_MIN_HEADER
        # Copy out of the mutable bytearray: holding a view would make
        # the `del buffer[:position]` reclaim a BufferError.
        if isinstance(starts, range) and starts.step >= width:
            view = memoryview(buffer)[starts.start : starts.stop]
            raw = np.frombuffer(bytes(view), dtype=np.uint8)
            matrix = raw.reshape(len(starts), starts.step)[:, :width]
        else:
            # `width` bytes from each start: a record shorter than that
            # reads on into what follows it (zeros after the last), and
            # no field past its captured length is used
            raw = np.zeros(end + width, dtype=np.uint8)
            raw[:end] = np.frombuffer(buffer, dtype=np.uint8, count=end)
            rows = np.array(starts, dtype=np.int64)
            matrix = sliding_window_view(raw, width)[rows]
        order = header.byte_order
        (capture_len,) = _uint32_fields(matrix, 8, order)
        keep = capture_len >= overhead + _IP_MIN_HEADER
        if ethernet:
            ethertype = _RECORD_HEADER_BYTES + _ETHERTYPE_OFFSET
            keep &= matrix[:, ethertype] == _ETHERTYPE_IPV4 // 256
            keep &= matrix[:, ethertype + 1] == _ETHERTYPE_IPV4 % 256
        keep &= (matrix[:, ip] >> 4) == 4
        if not keep.all():
            matrix = matrix[keep]
        seconds, fractions, capture_len, original_len = _uint32_fields(
            matrix, 0, order, 4
        )
        high = matrix[:, ip + _IP_TOTAL_LENGTH].astype(np.int64)
        total_length = (high << 8) | matrix[:, ip + _IP_TOTAL_LENGTH + 1]
        source, destination = _uint32_fields(matrix, ip + _IP_SOURCE, ">", 2)
        truncated = original_len > capture_len
        return PacketBatch(
            timestamps=seconds + fractions / (1e9 if header.nanosecond else 1e6),
            sources=source,
            destinations=destination,
            protocols=matrix[:, ip + _IP_PROTOCOL].astype(np.int64),
            wire_bytes=np.where(truncated, original_len, overhead + total_length),
            packets_seen=len(starts),
        )


def _equal_run(
    buffer: bytearray, position: int, order: str, max_captured: int
) -> tuple[int, int]:
    """``(count, stride)`` of the whole records from ``position`` if each
    claims the captured length the first claims, else ``(0, 0)``.

    The claims of an equal-length run are one strided column of the
    buffer; if any differs, the first that does is a real record's. An
    over-snaplen first claim is no run: the chase raises it.
    """
    if position + _RECORD_HEADER_BYTES > len(buffer):
        return 0, 0
    (incl,) = np.ndarray((1,), order + "u4", buffer, position + 8).tolist()
    stride = _RECORD_HEADER_BYTES + incl
    whole = (len(buffer) - position) // stride
    claims = np.ndarray((whole,), order + "u4", buffer, position + 8, (stride,))
    if incl > max_captured or not (claims == incl).all():
        return 0, 0
    return whole, stride


def _uint32_fields(
    matrix: np.ndarray, column: int, order: str, count: int = 1
) -> np.ndarray:
    """``count`` 32-bit fields from byte ``column`` on, one int64 row each."""
    fields = np.ascontiguousarray(matrix[:, column : column + 4 * count])
    return np.ascontiguousarray(fields.view(order + "u4").T, dtype=np.int64)


class CsvPacketSource:
    """Flow-record CSV: one ``timestamp,destination,wire_bytes`` row per
    packet (or pre-aggregated record), destination as dotted quad or
    integer. A header row starting with ``timestamp`` is skipped. This
    is the interchange format exported by flow collectors that have
    already shed payloads.
    """

    def __init__(self, path: str, chunk_packets: int = DEFAULT_CHUNK_PACKETS) -> None:
        if chunk_packets < 1:
            raise ClassificationError("chunk_packets must be >= 1")
        self.path = path
        self.chunk_packets = chunk_packets

    def batches(self) -> Iterator[PacketBatch]:
        timestamps: list[float] = []
        destinations: list[int] = []
        sizes: list[int] = []
        for line in text_lines(self.path, "capture"):
            line = line.strip()
            if not line or line.startswith("timestamp"):
                continue
            cells = line.split(",")
            if len(cells) < 3:
                raise ClassificationError(
                    f"flow-record row needs 3 columns: {line!r}"
                )
            timestamps.append(float(cells[0]))
            destination = cells[1].strip()
            destinations.append(
                ipv4.parse_ipv4(destination)
                if "." in destination
                else int(destination)
            )
            sizes.append(int(cells[2]))
            if len(timestamps) >= self.chunk_packets:
                yield self._build(timestamps, destinations, sizes)
                timestamps, destinations, sizes = [], [], []
        if timestamps:
            yield self._build(timestamps, destinations, sizes)

    @staticmethod
    def _build(
        timestamps: list[float], destinations: list[int], sizes: list[int]
    ) -> PacketBatch:
        return PacketBatch.of_flows(
            np.array(timestamps, dtype=np.float64),
            np.array(destinations, dtype=np.int64),
            np.array(sizes, dtype=np.int64),
        )


class ArrayPacketSource:
    """An in-memory packet source over parallel per-packet arrays.

    The columnar twin of a recorded capture: callers supply
    timestamps, destinations and wire sizes (sources/protocols default
    to zero) and get standard chunked batches back. Integer sizes are
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
            hi = lo + self.chunk_packets
            yield PacketBatch.of_flows(
                self.timestamps[lo:hi],
                self.destinations[lo:hi],
                self.wire_bytes[lo:hi],
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


class ScenarioSlotSource(MatrixSlotSource):
    """Stream a synthetic paper-link scenario slot by slot.

    ``link`` is ``"west"`` or ``"east"``; the fluid simulation runs once
    at construction (it is inherently whole-horizon) and the resulting
    matrix replays through the slot interface.
    """

    def __init__(
        self, link: str = "west", scale: float = 0.25, seed: int | None = None
    ) -> None:
        from repro.traffic.scenarios import east_coast_link, west_coast_link

        if link == "west":
            factory = west_coast_link
        elif link == "east":
            factory = east_coast_link
        else:
            raise ClassificationError(f"unknown link {link!r}")
        kwargs = {} if seed is None else {"seed": seed}
        self.workload = factory(scale=scale, **kwargs)
        super().__init__(self.workload.matrix)
