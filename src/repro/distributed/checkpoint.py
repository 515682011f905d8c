"""Durable collector state: one append-only log of sealed slots.

A restarted ``repro collect --listen`` must replay every sealed slot,
as the classifier looks back over past slots. Sealed slots are
immutable and strictly ordered, so an append-only log of sealed-merge
records describes collector state completely; nothing rewrites it.

``collector.wal`` is a plain sequence of ``KIND_SEAL`` frames in the
:mod:`repro.distributed.framing` envelope, each payload a
length-prefixed link name and one
:meth:`~repro.distributed.summary.SlotSummary.to_bytes` record.
:meth:`CheckpointStore.append` writes and flushes one frame per sealed
slot once the collector has classified it and *before* it acks the
monitor, so an acked summary is always recoverable and a slot the
classifier refused is never replayed (``fsync`` per record by default).

A kill can tear only the log's tail, the frame being written. Opening
reads the intact frames one at a time and cuts the file after the last
of them (fsynced) before an append could land after torn bytes; a kill
during the cut leaves the same tail to cut again. A record whose start
is not after its link's last kept one is a repeat, and restore drops
it: a link's sealed cells strictly increase.

A state directory from before the log stood alone may also hold
``collector.snap``, older records of the same run. Opening folds it
once: its intact records, then the log's, go to a temp file that is
fsynced and renamed over the log, and the snapshot is unlinked. A kill
before the rename leaves both files as they were; one before the
unlink leaves the snapshot's records at the head of the log as well,
and the next fold drops them there as repeats.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import BinaryIO, Iterator

from repro.distributed.framing import KIND_SEAL, encode_frame, read_frame
from repro.distributed.summary import SlotSummary
from repro.errors import SummaryFormatError

#: The snapshot a state directory may hold from before the log stood
#: alone; opening folds it into the log.
LEGACY_SNAPSHOT_NAME = "collector.snap"
WAL_NAME = "collector.wal"

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
    """The intact records of one checkpoint file, each with its payload
    and the byte offset its frame starts at.

    Reading stops at the first frame that is torn, corrupt, of another
    kind or undecodable, and sets :attr:`torn`; :attr:`end` is the
    offset just past the last intact frame."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.torn = False
        self.end = 0

    def __iter__(self) -> Iterator[tuple[str, SlotSummary, bytes, int]]:
        if not self.path.exists():
            return
        with open(self.path, "rb") as stream:
            while True:
                start = self.end
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
                self.end = stream.tell()
                yield link, summary, payload, start


class CheckpointStore:
    """Sealed-slot persistence for one collector under ``state_dir``.

    Opening reads what earlier processes sealed into :attr:`restored`
    (link name → slot-ordered merged summaries) for a
    :class:`~repro.distributed.service.LiveCollector` to take once
    (:meth:`take_restored`); :meth:`append` only writes.
    """

    def __init__(
        self, state_dir: str | os.PathLike, fsync: bool = True
    ) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.wal_path = self.state_dir / WAL_NAME
        self.restored: dict[str, list[SlotSummary]] = {}
        #: Sealed records restored and appended (across links).
        self.records = 0
        self._wal = None
        legacy = self.state_dir / LEGACY_SNAPSHOT_NAME
        self.recovered_torn_tail = (
            self._fold(legacy) if legacy.exists() else self._restore()
        )

    def take_restored(self) -> dict[str, list[SlotSummary]]:
        """The runs read at open, handed over: the store keeps none."""
        restored, self.restored = self.restored, {}
        return restored

    def _keep(self, *files: _Records, copy: BinaryIO | None = None) -> bool:
        """Read ``files`` into :attr:`restored`, less repeats, copying
        what is kept to ``copy``; says whether a tail was torn.

        A record on another grid than its link's first is refused, not
        dropped: frames carry no checksum, so either one may be the
        damaged record."""
        for records in files:
            for link, summary, payload, start in records:
                run = self.restored.setdefault(link, [])
                if run and summary.slot_seconds != run[0].slot_seconds:
                    raise SummaryFormatError(
                        f"{records.path}: the record at byte {start} puts "
                        f"link {link!r} on a {summary.slot_seconds!r}s "
                        f"grid, its first record on "
                        f"{run[0].slot_seconds!r}s"
                    )
                if run and summary.start <= run[-1].start:
                    continue
                run.append(summary)
                self.records += 1
                if copy is not None:
                    copy.write(encode_frame(KIND_SEAL, payload))
        return any(records.torn for records in files)

    def _restore(self) -> bool:
        """Read the log; cut a torn tail off it. Nothing is rewritten."""
        log = _Records(self.wal_path)
        if self._keep(log):
            with open(self.wal_path, "r+b") as handle:
                handle.truncate(log.end)
                self._sync(handle)
        return log.torn

    def _fold(self, legacy: Path) -> bool:
        """Replace the log with the snapshot's records, then its own."""
        temp_path = self.wal_path.with_suffix(".tmp")
        try:
            with open(temp_path, "wb") as temp:
                files = (_Records(legacy), _Records(self.wal_path))
                torn = self._keep(*files, copy=temp)
                self._sync(temp)
        except BaseException:  # a refused fold leaves the directory as is
            temp_path.unlink(missing_ok=True)
            raise
        os.replace(temp_path, self.wal_path)
        legacy.unlink()
        return torn

    def _sync(self, handle) -> None:
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())

    def append(self, link: str, summary: SlotSummary) -> None:
        """Durably log one classified sealed slot (call *before* acking)."""
        if self._wal is None:
            self._wal = open(self.wal_path, "ab")
        self._wal.write(encode_seal(link, summary))
        self._sync(self._wal)
        self.records += 1

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = [
    "LEGACY_SNAPSHOT_NAME",
    "WAL_NAME",
    "CheckpointStore",
    "decode_seal",
    "encode_seal",
]
