"""Durable collector state: a sealed-slot WAL with snapshot compaction.

``repro collect --listen`` used to keep every sealed slot in memory
only — restarting the daemon forgot the whole run, so monitors
reconnecting after a collector crash re-streamed history into a
collector that no longer knew it was history. :class:`CheckpointStore`
closes that hole with the cheapest durable structure that fits the
data: sealed slots are immutable and strictly ordered, so a
write-ahead log of sealed-merge records is a complete description of
collector state.

On-disk format — both files are a plain sequence of ``KIND_SEAL``
frames in the :mod:`repro.distributed.framing` envelope, each payload
a length-prefixed link name followed by one
:meth:`~repro.distributed.summary.SlotSummary.to_bytes` record::

    collector.snap     every sealed record up to the last compaction
    collector.wal      records appended since

:meth:`append` writes and flushes one frame per sealed slot once the
collector has classified it and *before* it acks the monitor, so an
acked summary is always recoverable and a slot the classifier refused
is never replayed (``fsync`` per record by default; pass
``fsync=False`` to trade the write barrier for throughput). Every
``compact_every`` appends the store folds the WAL into the snapshot —
written to a temp file, fsynced, then atomically renamed over the old
snapshot before the WAL truncates, so a crash at any byte of the
compaction leaves either the old snapshot + full WAL or the new
snapshot + empty WAL, never less.

:meth:`restore` replays snapshot then WAL through a
:class:`~repro.distributed.framing.FrameDecoder`. A torn tail — the
record the previous process was writing when it died — shows up as
either an incomplete final frame (silently ignored: the decoder just
buffers it) or a corrupt one (decode raises: restore stops at the last
good record). Either way recovery is "everything up to the last
complete record", and the store immediately compacts so the torn bytes
never precede fresh appends.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

from repro.distributed.framing import (
    KIND_SEAL,
    FrameDecoder,
    encode_frame,
)
from repro.distributed.summary import SlotSummary
from repro.errors import SummaryFormatError

SNAPSHOT_NAME = "collector.snap"
WAL_NAME = "collector.wal"

#: Appends between automatic compactions.
DEFAULT_COMPACT_EVERY = 256

_LINK_HEADER = struct.Struct(">H")


def encode_seal(link: str, summary: SlotSummary) -> bytes:
    """One sealed-slot record as a ``KIND_SEAL`` frame."""
    name = link.encode("utf-8")
    if len(name) > 0xFFFF:
        raise SummaryFormatError(
            f"link name of {len(name)} bytes is too long to checkpoint"
        )
    payload = _LINK_HEADER.pack(len(name)) + name + summary.to_bytes()
    return encode_frame(KIND_SEAL, payload)


def decode_seal(payload: bytes) -> tuple[str, SlotSummary]:
    """Parse one ``KIND_SEAL`` payload back to (link, summary)."""
    if len(payload) < _LINK_HEADER.size:
        raise SummaryFormatError("seal record too short for link header")
    (name_length,) = _LINK_HEADER.unpack_from(payload)
    body = _LINK_HEADER.size + name_length
    if len(payload) < body:
        raise SummaryFormatError("seal record truncates its link name")
    link = payload[_LINK_HEADER.size : body].decode("utf-8")
    return link, SlotSummary.from_bytes(payload[body:])


def _read_records(path: Path) -> tuple[list[tuple[str, SlotSummary]], bool]:
    """Every complete record in ``path``; flags a torn/corrupt tail.

    Stops at the first undecodable byte — everything before it is
    intact (frames are self-delimiting), everything after is the
    record a dying process failed to finish writing.
    """
    records: list[tuple[str, SlotSummary]] = []
    if not path.exists():
        return records, False
    data = path.read_bytes()
    decoder = FrameDecoder()
    torn = False
    try:
        frames = decoder.feed(data)
    except SummaryFormatError:
        # A corrupt header mid-stream: the eager feed() raised before
        # returning, so re-feed byte ranges frame by frame to salvage
        # the intact prefix.
        frames = []
        decoder = FrameDecoder()
        for offset in range(len(data)):
            try:
                frames.extend(decoder.feed(data[offset : offset + 1]))
            except SummaryFormatError:
                torn = True
                break
    if decoder.pending_bytes:
        torn = True
    for kind, payload in frames:
        if kind != KIND_SEAL:
            torn = True
            break
        try:
            records.append(decode_seal(payload))
        except SummaryFormatError:
            torn = True
            break
    return records, torn


class CheckpointStore:
    """Sealed-slot persistence for one collector under ``state_dir``.

    The store owns the full sealed history in memory (``sealed`` maps
    link name → slot-ordered merged summaries): that is exactly what a
    restarted :class:`~repro.distributed.service.LiveCollector` needs
    to rebuild, and it makes compaction a pure rewrite with no
    re-reading.
    """

    def __init__(
        self,
        state_dir: str | os.PathLike,
        compact_every: int = DEFAULT_COMPACT_EVERY,
        fsync: bool = True,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.compact_every = max(1, compact_every)
        self.fsync = fsync
        self.snapshot_path = self.state_dir / SNAPSHOT_NAME
        self.wal_path = self.state_dir / WAL_NAME
        self.sealed: dict[str, list[SlotSummary]] = {}
        self.recovered_torn_tail = False
        self._since_compact = 0
        self._wal = None
        self._restore()

    def _restore(self) -> None:
        snap_records, snap_torn = _read_records(self.snapshot_path)
        wal_records, wal_torn = _read_records(self.wal_path)
        for link, summary in snap_records + wal_records:
            self.sealed.setdefault(link, []).append(summary)
        self.recovered_torn_tail = snap_torn or wal_torn
        # Fold WAL into the snapshot on every open: the WAL starts
        # empty, and any torn tail is rewritten out of existence
        # before the first fresh append could land after it.
        self.compact()

    @property
    def records(self) -> int:
        """Sealed records held (across links)."""
        return sum(len(run) for run in self.sealed.values())

    def _open_wal(self):
        if self._wal is None:
            self._wal = open(self.wal_path, "ab")
        return self._wal

    def _sync(self, handle) -> None:
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())

    def append(self, link: str, summary: SlotSummary) -> None:
        """Durably log one classified sealed slot (call *before* acking)."""
        wal = self._open_wal()
        wal.write(encode_seal(link, summary))
        self._sync(wal)
        self.sealed.setdefault(link, []).append(summary)
        self._since_compact += 1
        if self._since_compact >= self.compact_every:
            self.compact()

    def compact(self) -> None:
        """Fold the WAL into the snapshot; atomic at every step."""
        temp_path = self.snapshot_path.with_suffix(".tmp")
        with open(temp_path, "wb") as snap:
            for link in sorted(self.sealed):
                for summary in self.sealed[link]:
                    snap.write(encode_seal(link, summary))
            self._sync(snap)
        os.replace(temp_path, self.snapshot_path)
        if self._wal is not None:
            self._wal.close()
            self._wal = None
        with open(self.wal_path, "wb") as wal:
            self._sync(wal)
        self._since_compact = 0

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = [
    "DEFAULT_COMPACT_EVERY",
    "SNAPSHOT_NAME",
    "WAL_NAME",
    "CheckpointStore",
    "decode_seal",
    "encode_seal",
]
