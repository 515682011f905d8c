"""Zero-copy shared-memory transport: columnar packet-batch rings.

PR 4's multi-process runner moved every packet batch through a pickled
``multiprocessing.Queue`` hop, which made IPC — not sketch work — the
fleet's bottleneck: adding workers *lost* throughput. This module is
the replacement transport. Each worker owns one
:class:`~multiprocessing.shared_memory.SharedMemory` ring partitioned
into fixed-size slots; the writer writes a dealt sub-batch's column
arrays (timestamps float64, flow keys int64, wire bytes int64) plus
the incremental prefix-table sync straight into a free slot, and only
a tiny ``(slot, final)`` descriptor crosses a queue. The worker
attaches numpy views onto the same pages and feeds them to its
aggregator in place — no serialization and no consumer-side copy on
the hot path.

Slot layout (host byte order)::

    header   int64 x 2          rows, syncs
    columns  float64 x rows     timestamps
             int64   x rows     flow keys
             int64   x rows     wire bytes
    sync     int64   x syncs    prefix networks
             int64   x syncs    prefix lengths

Flow control is the free list: every slot index is either in the
writer's idle pool, referenced by an in-flight descriptor, or with the
consumer, and the writer blocks on the free-list queue when the ring
is exhausted. That blocking *is* the read loop's backpressure bound — it
replaces the bounded pickle queue's ``queue_batches`` semantics. A
message larger than one slot spans several descriptors; the consumer
reassembles the logical batch (copying only in that rare spill case,
releasing each part's slot immediately so a message bigger than the
whole ring cannot deadlock against the writer) and therefore preserves
the reader's batch boundaries exactly — which is what keeps sketch
semantics identical to the in-process sharded run.

Lifecycle: the process that calls
:func:`~repro.distributed.runner.parallel_ingest` creates the rings,
writes into them and is the only unlinker. Workers attach by name;
CPython registers attachers with the ``resource_tracker`` too, but the
whole fleet shares the creator's tracker daemon (fork inherits its
pipe, spawn passes the fd explicitly) and the tracker's cache is a
set, so the re-registrations collapse into the creator's single entry
and the one ``unlink`` balances it. ``parallel_ingest`` destroys the
rings in a ``finally`` block after the fleet is reaped, so no
``/dev/shm`` segment survives any exit path — success,
:class:`~repro.errors.ReproError`, or a hard-killed child; if the
creator itself dies uncleanly, the shared tracker reclaims the
segments at shutdown.
"""

from __future__ import annotations

import os
import queue as queue_module
import secrets
from collections import deque
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable, Iterator

import numpy as np

from repro.errors import ClassificationError

#: Ring slots per worker — the in-flight batch bound. With slots sized
#: to the source chunk (as the runner sizes them) this bounds writer-side
#: lead exactly like PR 4's eight-batch queue did.
DEFAULT_RING_SLOTS = 8

#: Every ring segment's name starts with this (``/dev/shm`` listings
#: in the leak tests key on it).
SHM_NAME_PREFIX = "repro-ring-"

_HEADER_BYTES = 16  # rows int64 + syncs int64
_ROW_BYTES = 24  # timestamp float64 + flow key int64 + wire bytes int64
_SYNC_BYTES = 16  # prefix network int64 + prefix length int64
_WAIT_POLL_SECONDS = 0.2  # how often a blocked writer calls on_wait

#: Columns of one unpacked message part, in slot order.
_COLUMN_DTYPES = (
    np.float64,  # timestamps
    np.int64,  # flow keys
    np.int64,  # wire bytes
    np.int64,  # sync networks
    np.int64,  # sync lengths
)


@dataclass(frozen=True)
class RingSpec:
    """The geometry a child process needs to attach to a ring by name."""

    name: str
    slots: int
    slot_bytes: int


class ShmRing:
    """One worker's shared-memory ring of columnar batch slots.

    Create with :meth:`create` (the owning side — the only process
    allowed to unlink) or :meth:`attach` (every other process).
    :meth:`pack`/:meth:`unpack` are symmetric: the writer copies column
    segments into a slot once, the consumer gets numpy views of the
    same bytes back.
    """

    def __init__(
        self, shm: shared_memory.SharedMemory, spec: RingSpec, owner: bool
    ) -> None:
        self._shm = shm
        self.spec = spec
        self._owner = owner

    @classmethod
    def create(cls, slots: int, slot_packets: int) -> "ShmRing":
        """Allocate a ring whose slots hold ``slot_packets`` rows each."""
        if slots < 1:
            raise ClassificationError("ring slots must be >= 1")
        if slot_packets < 1:
            raise ClassificationError("ring slot packets must be >= 1")
        slot_bytes = _HEADER_BYTES + slot_packets * _ROW_BYTES
        name = f"{SHM_NAME_PREFIX}{os.getpid()}-{secrets.token_hex(4)}"
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=slots * slot_bytes
        )
        return cls(shm, RingSpec(name, slots, slot_bytes), owner=True)

    @classmethod
    def attach(cls, spec: RingSpec) -> "ShmRing":
        """Attach to an existing ring; the creator keeps ownership."""
        # CPython registers attachers with the resource tracker too,
        # but every fleet process shares the collector's tracker daemon
        # and its cache is a set — the extra registrations are no-ops,
        # and the creator's unlink unregisters the single entry.
        shm = shared_memory.SharedMemory(name=spec.name)
        return cls(shm, spec, owner=False)

    def pack(
        self,
        slot: int,
        timestamps: np.ndarray,
        keys: np.ndarray,
        sizes: np.ndarray,
        networks: np.ndarray,
        lengths: np.ndarray,
        row_lo: int = 0,
        sync_lo: int = 0,
    ) -> tuple[int, int]:
        """Write one slot's worth of the message, starting at the cursors.

        Sync entries take priority — a worker must know every prefix
        before it ingests rows that reference one — then as many rows
        as the remaining bytes hold. Returns the advanced
        ``(row_lo, sync_lo)`` cursors; callers loop until both reach
        the end of the message. Any slot can always make progress: the
        minimum slot size fits one sync entry or one row.
        """
        budget = self.spec.slot_bytes - _HEADER_BYTES
        syncs = min(networks.size - sync_lo, budget // _SYNC_BYTES)
        budget -= syncs * _SYNC_BYTES
        rows = min(keys.size - row_lo, budget // _ROW_BYTES)
        base = slot * self.spec.slot_bytes
        buf = self._shm.buf
        header = np.ndarray(2, dtype=np.int64, buffer=buf, offset=base)
        header[0] = rows
        header[1] = syncs
        offset = base + _HEADER_BYTES
        for column, lo, count, dtype in (
            (timestamps, row_lo, rows, np.float64),
            (keys, row_lo, rows, np.int64),
            (sizes, row_lo, rows, np.int64),
            (networks, sync_lo, syncs, np.int64),
            (lengths, sync_lo, syncs, np.int64),
        ):
            view = np.ndarray(count, dtype=dtype, buffer=buf, offset=offset)
            view[:] = column[lo : lo + count]
            offset += count * 8
        return row_lo + rows, sync_lo + syncs

    def unpack(self, slot: int) -> tuple[np.ndarray, ...]:
        """Zero-copy ``(timestamps, keys, sizes, networks, lengths)``
        views of the message part held in ``slot``."""
        base = slot * self.spec.slot_bytes
        buf = self._shm.buf
        header = np.ndarray(2, dtype=np.int64, buffer=buf, offset=base)
        rows, syncs = int(header[0]), int(header[1])
        views = []
        offset = base + _HEADER_BYTES
        for count, dtype in zip((rows, rows, rows, syncs, syncs), _COLUMN_DTYPES):
            views.append(np.ndarray(count, dtype=dtype, buffer=buf, offset=offset))
            offset += count * 8
        return tuple(views)

    def close(self) -> None:
        """Drop this process's mapping (never unlinks).

        Live numpy views pin the exported buffer; a worker tearing
        down right after its last batch may still hold one, so this
        tolerates the :class:`BufferError` — the mapping is reclaimed
        at process exit either way.
        """
        try:
            self._shm.close()
        except BufferError:
            pass

    def destroy(self) -> None:
        """Creator-side cleanup: close and unlink the segment."""
        self.close()
        if not self._owner:
            return
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


class RingWriter:
    """Producer side: deal column messages into free ring slots.

    ``data_queue`` carries ``(slot, final)`` descriptors to the
    consumer; ``free_queue`` brings consumed slots back. Only slot
    indices and two booleans ever cross a process boundary — the
    columns themselves move exactly once, into shared memory.

    ``on_wait`` (optional) is called every ``_WAIT_POLL_SECONDS`` while
    the writer is blocked on a full ring. The runner uses it to keep
    receiving what its workers send and to check that the consumer is
    alive — a writer stuck on a *dead* consumer's ring would otherwise
    wait for ever. The hook may raise to abort the send; with no hook the wait
    is the plain blocking ``get`` it always was.
    """

    def __init__(
        self,
        ring: ShmRing,
        free_queue,
        data_queue,
        on_wait: Callable[[], None] | None = None,
    ) -> None:
        self.ring = ring
        self._free = free_queue
        self._data = data_queue
        self._on_wait = on_wait
        self._idle = deque(range(ring.spec.slots))

    def _next_slot(self) -> int:
        if self._idle:
            return self._idle.popleft()
        # Ring exhausted: block until the consumer returns a slot.
        # This wait is the transport's backpressure — the writer
        # stalls instead of buffering the capture or dropping batches.
        if self._on_wait is None:
            return self._free.get()
        while True:
            try:
                return self._free.get(timeout=_WAIT_POLL_SECONDS)
            except queue_module.Empty:
                self._on_wait()

    def send(
        self,
        timestamps: np.ndarray,
        keys: np.ndarray,
        sizes: np.ndarray,
        networks: np.ndarray,
        lengths: np.ndarray,
    ) -> None:
        """Ship one logical message, spanning slots when oversized."""
        row_lo = sync_lo = 0
        while True:
            slot = self._next_slot()
            row_lo, sync_lo = self.ring.pack(
                slot,
                timestamps,
                keys,
                sizes,
                networks,
                lengths,
                row_lo,
                sync_lo,
            )
            final = row_lo >= keys.size and sync_lo >= networks.size
            self._data.put((slot, final))
            if final:
                return

    def close(self) -> None:
        """Send the end-of-stream sentinel."""
        self._data.put(None)


class RingConsumer:
    """Worker side: iterate logical messages as column tuples.

    :meth:`batches` yields one ``(timestamps, keys, sizes, networks,
    lengths)`` tuple per :meth:`RingWriter.send`. Single-slot messages
    — the overwhelmingly common case once slots are sized to the
    source chunk — come out as zero-copy views into shared memory, and
    the slot is only released when the caller advances the generator,
    so consume the views fully before resuming. Spilled messages are
    reassembled with copies, releasing each part's slot on arrival.
    """

    def __init__(self, ring: ShmRing, free_queue, data_queue) -> None:
        self.ring = ring
        self._free = free_queue
        self._data = data_queue

    def batches(self) -> Iterator[tuple[np.ndarray, ...]]:
        parts: list[tuple[np.ndarray, ...]] = []
        while True:
            message = self._data.get()
            if message is None:
                return
            slot, final = message
            views = self.ring.unpack(slot)
            if parts or not final:
                # Spilled message: copy the part out and free its slot
                # now — holding parts until ``final`` could starve a
                # writer whose message needs more slots than the ring
                # holds.
                parts.append(tuple(column.copy() for column in views))
                del views
                self._free.put(slot)
                if not final:
                    continue
                columns = tuple(
                    np.concatenate([part[i] for part in parts])
                    for i in range(len(_COLUMN_DTYPES))
                )
                parts = []
                yield columns
                continue
            yield views
            del views
            self._free.put(slot)


__all__ = [
    "DEFAULT_RING_SLOTS",
    "SHM_NAME_PREFIX",
    "RingConsumer",
    "RingSpec",
    "RingWriter",
    "ShmRing",
]
