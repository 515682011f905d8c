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
``compact_every`` appends the store folds the WAL into the snapshot:
it reads snapshot then WAL back one record at a time and copies each
intact frame into a temp file, fsynced, then atomically renamed over
the old snapshot before the WAL truncates, so a crash at any byte of
the compaction leaves either the old snapshot + full WAL or the new
snapshot + empty WAL, never less. The store keeps no record in
memory: the WAL is the sealed history.

Opening the store restores through the same reader (and compacts).
A torn tail — the record the previous process was writing when it
died — shows up as either an incomplete final frame or a corrupt
one; either way reading stops there, recovery is "everything up to
the last complete record", and the compaction at open rewrites the
torn bytes away before a fresh append could land after them. A torn
or corrupt tail that a later compaction meets is dropped the same way.
"""

from __future__ import annotations

import os
import struct
from itertools import chain
from pathlib import Path
from typing import Iterator

from repro.distributed.framing import KIND_SEAL, encode_frame, read_frame
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
    try:
        link = payload[_LINK_HEADER.size : body].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SummaryFormatError(f"seal record link name: {exc}") from exc
    return link, SlotSummary.from_bytes(payload[body:])


class _Records:
    """The intact records of one checkpoint file, one at a time.

    Reading stops at the first frame that is torn, corrupt, of another
    kind or undecodable: everything before it is intact (frames are
    self-delimiting), everything from it on is the record a dying
    process failed to finish writing. :attr:`torn` says it stopped
    there. Each record comes with its frame, to copy as it is.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.torn = False

    def __iter__(self) -> Iterator[tuple[str, SlotSummary, bytes]]:
        if not self.path.exists():
            return
        with open(self.path, "rb") as stream:
            while True:
                try:
                    frame = read_frame(stream)
                    if frame is None:
                        return
                    kind, payload = frame
                    if kind != KIND_SEAL:
                        raise SummaryFormatError("not a seal record")
                    link, summary = decode_seal(payload)
                except SummaryFormatError:
                    self.torn = True
                    return
                yield link, summary, encode_frame(kind, payload)


class CheckpointStore:
    """Sealed-slot persistence for one collector under ``state_dir``.

    The store holds no sealed history. Opening it reads what earlier
    processes sealed into :attr:`restored` (link name → slot-ordered
    merged summaries), which a
    :class:`~repro.distributed.service.LiveCollector` takes once
    (:meth:`take_restored`) to rebuild from; :meth:`append` only
    writes; :meth:`compact` streams the snapshot and WAL back through
    the reader restore uses, one record at a time. The store's memory
    does not grow with the history.
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
        self.restored: dict[str, list[SlotSummary]] = {}
        #: Sealed records in the snapshot and WAL (across links).
        self.records = 0
        self._since_compact = 0
        self._wal = None
        # Fold the WAL into the snapshot on every open: the WAL starts
        # empty, and any torn tail is rewritten out of existence
        # before the first fresh append could land after it.
        self.recovered_torn_tail = self._compact(self.restored)

    def take_restored(self) -> dict[str, list[SlotSummary]]:
        """The runs read at open, handed over: the store keeps none."""
        restored, self.restored = self.restored, {}
        return restored

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
        self.records += 1
        self._since_compact += 1
        if self._since_compact >= self.compact_every:
            self.compact()

    def compact(self) -> None:
        """Fold the WAL into the snapshot; atomic at every step."""
        self._compact()

    def _compact(
        self, keep: dict[str, list[SlotSummary]] | None = None
    ) -> bool:
        """Copy every intact record of snapshot then WAL into a new
        snapshot, then empty the WAL; a torn or corrupt tail of either
        is dropped as restore drops it, and reported. ``keep`` collects
        the records by link."""
        self.close()
        files = (_Records(self.snapshot_path), _Records(self.wal_path))
        temp_path = self.snapshot_path.with_suffix(".tmp")
        self.records = 0
        with open(temp_path, "wb") as snap:
            for link, summary, frame in chain(*files):
                snap.write(frame)
                self.records += 1
                if keep is not None:
                    keep.setdefault(link, []).append(summary)
            self._sync(snap)
        os.replace(temp_path, self.snapshot_path)
        with open(self.wal_path, "wb") as wal:
            self._sync(wal)
        self._since_compact = 0
        return any(records.torn for records in files)

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
