"""Reader and writer for the classic libpcap capture file format.

We implement the venerable ``pcap`` container (magic ``0xA1B2C3D4``,
microsecond timestamps) rather than pcapng: it is what backbone
monitoring infrastructure of the paper's era produced, and it is simple
enough to implement exactly. Both byte orders and the nanosecond-magic
variant are read; files are always written little-endian with
microsecond resolution.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator

from repro.errors import PcapFormatError

#: Standard microsecond-resolution magic number.
MAGIC_USEC = 0xA1B2C3D4
#: Nanosecond-resolution magic number (introduced by later libpcap).
MAGIC_NSEC = 0xA1B23C4D

#: Link types we care about.
LINKTYPE_ETHERNET = 1
LINKTYPE_RAW_IP = 101

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_GLOBAL_HEADER_BE = struct.Struct(">IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")
_RECORD_HEADER_BE = struct.Struct(">IIII")

#: Default snap length written into new files.
DEFAULT_SNAPLEN = 65535
#: The most bytes one record may claim when the header's snaplen is 0
#: (unknown) or larger: the largest record libpcap itself accepts.
MAX_RECORD_BYTES = 262144


@dataclass(frozen=True)
class CaptureRecord:
    """One captured packet: timestamp, captured bytes, original length.

    ``timestamp`` is a float in seconds since the epoch. ``original_length``
    may exceed ``len(data)`` when the capture was truncated by the snap
    length, exactly as in real captures.
    """

    timestamp: float
    data: bytes
    original_length: int | None = None

    @property
    def captured_length(self) -> int:
        """Number of bytes actually present in :attr:`data`."""
        return len(self.data)

    @property
    def wire_length(self) -> int:
        """Length of the packet on the wire."""
        if self.original_length is None:
            return len(self.data)
        return self.original_length


@dataclass(frozen=True)
class PcapHeader:
    """Parsed global header of a pcap file."""

    byte_order: str  # "<" or ">"
    nanosecond: bool
    snaplen: int
    linktype: int

    @property
    def record_limit(self) -> int:
        """The most captured bytes a record of this file may claim."""
        if 0 < self.snaplen <= MAX_RECORD_BYTES:
            return self.snaplen
        return MAX_RECORD_BYTES

    def oversized(self, claimed: int) -> PcapFormatError:
        """The error for a record claiming more than :attr:`record_limit`."""
        if self.record_limit == self.snaplen:
            bound = f"snaplen {self.snaplen}"
        else:
            bound = f"the {MAX_RECORD_BYTES}-byte record limit"
        return PcapFormatError(f"record claims {claimed} bytes, above {bound}")


def read_header(stream: BinaryIO) -> PcapHeader:
    """Read and validate the 24-byte global header."""
    raw = stream.read(_GLOBAL_HEADER.size)
    if len(raw) < _GLOBAL_HEADER.size:
        raise PcapFormatError("truncated pcap global header")
    magic_le = struct.unpack("<I", raw[:4])[0]
    magic_be = struct.unpack(">I", raw[:4])[0]
    if magic_le in (MAGIC_USEC, MAGIC_NSEC):
        byte_order, magic = "<", magic_le
        fields = _GLOBAL_HEADER.unpack(raw)
    elif magic_be in (MAGIC_USEC, MAGIC_NSEC):
        byte_order, magic = ">", magic_be
        fields = _GLOBAL_HEADER_BE.unpack(raw)
    else:
        raise PcapFormatError(f"bad pcap magic 0x{magic_le:08X}")
    _, major, minor, _tz, _sigfigs, snaplen, linktype = fields
    if (major, minor) != (2, 4):
        raise PcapFormatError(f"unsupported pcap version {major}.{minor}")
    return PcapHeader(
        byte_order=byte_order,
        nanosecond=(magic == MAGIC_NSEC),
        snaplen=snaplen,
        linktype=linktype,
    )


def read_records(stream: BinaryIO, header: PcapHeader) -> Iterator[CaptureRecord]:
    """Yield :class:`CaptureRecord` objects until end of file.

    A cleanly truncated final record raises
    :class:`~repro.errors.PcapFormatError`, since silent data loss is
    worse than a loud failure in a measurement pipeline.
    """
    record_struct = _RECORD_HEADER if header.byte_order == "<" else _RECORD_HEADER_BE
    divisor = 1e9 if header.nanosecond else 1e6
    while True:
        raw = stream.read(record_struct.size)
        if not raw:
            return
        if len(raw) < record_struct.size:
            raise PcapFormatError("truncated pcap record header")
        seconds, fraction, captured, original = record_struct.unpack(raw)
        if captured > header.record_limit:
            raise header.oversized(captured)
        data = stream.read(captured)
        if len(data) < captured:
            raise PcapFormatError("truncated pcap record body")
        yield CaptureRecord(
            timestamp=seconds + fraction / divisor,
            data=data,
            original_length=original,
        )


class PcapReader:
    """Iterate over the packets of a pcap file.

    Usable as a context manager::

        with PcapReader.open(path) as reader:
            for record in reader:
                ...
    """

    def __init__(self, stream: BinaryIO) -> None:
        self._stream = stream
        self.header = read_header(stream)

    @classmethod
    def open(cls, path: str) -> "PcapReader":
        """Open ``path`` for reading; the reader owns the file handle."""
        stream = open(path, "rb")
        try:
            return cls(stream)
        except Exception:
            stream.close()
            raise

    @property
    def linktype(self) -> int:
        """The capture's link-layer type."""
        return self.header.linktype

    def __iter__(self) -> Iterator[CaptureRecord]:
        return read_records(self._stream, self.header)

    def close(self) -> None:
        self._stream.close()

    def __enter__(self) -> "PcapReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class PcapWriter:
    """Write packets into a classic little-endian microsecond pcap file."""

    def __init__(self, stream: BinaryIO, linktype: int = LINKTYPE_ETHERNET,
                 snaplen: int = DEFAULT_SNAPLEN) -> None:
        self._stream = stream
        self.linktype = linktype
        self.snaplen = snaplen
        stream.write(_GLOBAL_HEADER.pack(
            MAGIC_USEC, 2, 4, 0, 0, snaplen, linktype
        ))

    @classmethod
    def open(cls, path: str, linktype: int = LINKTYPE_ETHERNET,
             snaplen: int = DEFAULT_SNAPLEN) -> "PcapWriter":
        """Create/truncate ``path``; the writer owns the file handle."""
        stream = open(path, "wb")
        try:
            return cls(stream, linktype=linktype, snaplen=snaplen)
        except Exception:
            stream.close()
            raise

    def write(self, record: CaptureRecord) -> None:
        """Append one packet record, truncating to the snap length."""
        data = record.data[: self.snaplen]
        seconds = int(record.timestamp)
        micros = int(round((record.timestamp - seconds) * 1e6))
        if micros >= 1_000_000:  # guard against rounding to the next second
            seconds += 1
            micros -= 1_000_000
        self._stream.write(_RECORD_HEADER.pack(
            seconds, micros, len(data), record.wire_length
        ))
        self._stream.write(data)

    def write_all(self, records: Iterable[CaptureRecord]) -> int:
        """Write every record; returns the number written."""
        count = 0
        for record in records:
            self.write(record)
            count += 1
        return count

    def close(self) -> None:
        self._stream.close()

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
