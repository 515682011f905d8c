"""True multi-process ingestion: reader → shm rings → workers → collector.

:class:`~repro.pipeline.sharded.ShardedAggregation` rehearses the
partitioned dataflow inside one process; this module performs it for
real. :func:`parallel_ingest` forks one **reader** process that scans a
:class:`~repro.pipeline.sources.PacketSource`, resolves destinations to
flow keys once, and deals each packet to the worker owning its key —
the same Fibonacci hash (:func:`~repro.pipeline.sharded.shard_of`) the
in-process sharder uses, so worker ``i`` sees exactly the sub-stream
shard ``i`` would. Each **worker** process owns one aggregation backend
(``spec.build_shard(i)`` — the very table shard ``i`` of a sharded
single-process run holds), bins its sub-stream into slots, and
serializes every completed slot as a
:meth:`~repro.distributed.summary.SlotSummary.to_bytes` payload back to
the **collector** — the calling process — which parses the wire records
and classifies the merged link through the unchanged
:func:`~repro.distributed.merge.merge_summaries` +
:class:`~repro.distributed.collector.Collector` path.

Packets never cross a pickled queue. The reader writes each dealt
sub-batch's column arrays straight into a per-worker shared-memory
ring (:mod:`~repro.distributed.shm_ring`), and only tiny slot
descriptors travel over queues; workers ingest numpy views of the ring
pages in place. The ring's free list is the backpressure bound: with
all ``ring_slots`` slots in flight the reader blocks instead of
buffering the capture. The collector creates the rings and always
unlinks them — success, error, or crash — so no ``/dev/shm`` segment
outlives :func:`parallel_ingest`. Worker and reader crashes surface as
:class:`~repro.errors.ReproError` at the collector — with every child
process terminated first, never orphaned — which the CLI maps to exit
code 2.

Captures are assumed chronological (pcap order). Out-of-order packets
are dropped per worker against the worker's own open slot, which can
admit a straggler a single-process run would have dropped; equivalence
with :class:`ShardedAggregation` is exact for in-order input.

Supervision (``on_worker_crash``): by default a dead worker aborts the
whole run, exactly as before. Under ``"restart"`` the collector
respawns the worker with a fresh ring and the reader replays only the
spans the dead incarnation had not sealed — the reader retains every
dealt span until the collector confirms (over the control queue) that
a summary *covering* it was durably received, so the restarted
worker's summaries are byte-identical to a crash-free run's. Under
``"degrade"`` the dead worker's shard is dropped: the run completes on
the surviving workers and the result reports the degraded shard, with
``fill_gaps`` covering any cell only that shard populated. Fleet
*stats* (not summaries) may undercount after a restart: the dead
incarnation's matched-packet counters die with it.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import queue as queue_module
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.distributed.faults import FaultPlan
from repro.distributed.shm_ring import (
    DEFAULT_RING_SLOTS,
    RingConsumer,
    RingSpec,
    RingWriter,
    ShmRing,
)
from repro.distributed.summary import SlotSummary
from repro.errors import ClassificationError, ReproError
from repro.flows.aggregate import AggregationStats
from repro.net.prefix import Prefix, PrefixColumns
from repro.pipeline.sharded import shard_segments
from repro.pipeline.sources import (
    DEFAULT_CHUNK_PACKETS,
    PacketBatch,
    PacketSource,
)
from repro.routing.lpm import NO_ROUTE

if TYPE_CHECKING:
    from repro.core.engine import EngineConfig, Feature, Scheme
    from repro.distributed.collector import Collector
    from repro.pipeline.aggregator import PrefixResolver
    from repro.pipeline.spec import PipelineSpec

#: Force a multiprocessing start method (``fork``/``spawn``/
#: ``forkserver``); the spawn-fallback tests use it to exercise the
#: pickle path that fork hides.
START_METHOD_ENV = "REPRO_RUNNER_START_METHOD"

_POLL_SECONDS = 0.2
_CRASH_GRACE_SECONDS = 1.0
_DRAIN_GRACE_SECONDS = 0.1

#: Crash-handling policies for ``parallel_ingest(on_worker_crash=...)``.
CRASH_POLICIES = ("abort", "restart", "degrade")

#: Restarts per worker before a crash loop aborts the run anyway.
DEFAULT_MAX_WORKER_RESTARTS = 3


class RowResolver:
    """Identity resolver over pre-resolved keys.

    Workers receive flow keys the reader already resolved, so their
    aggregator's "resolution" is the identity; the prefix table that
    gives keys meaning is grown incrementally from the reader's
    messages (``prefixes`` is append-only, like every repo resolver).
    Also useful wherever keys *are* the rows, e.g. replaying a rate
    matrix whose row indices double as flow keys.
    """

    def __init__(self, prefixes: Sequence[Prefix] = ()) -> None:
        self.prefixes = PrefixColumns.of(prefixes)[:]  # a copy: it grows

    def __len__(self) -> int:
        return len(self.prefixes)

    def extend(self, networks: Sequence[int], lengths: Sequence[int]) -> None:
        """Append newly discovered prefixes (reader → worker sync), as
        the integer columns the ring transport hands the worker; a
        :class:`Prefix` is built only when its row is read."""
        self.prefixes.extend(networks, lengths)

    def lookup(self, addresses: np.ndarray) -> np.ndarray:
        """Keys pass through unchanged; they are already rows."""
        return np.asarray(addresses, dtype=np.int64)


@dataclass
class ParallelIngestResult:
    """What a multi-process ingestion run produced.

    ``runs[i]`` is worker ``i``'s slot-ordered summary run — exactly
    the artefact a monitor writes with ``--summary-out`` — so the
    downstream merge/classify machinery is the unchanged multi-monitor
    path.
    """

    runs: list[list[SlotSummary]]
    stats: AggregationStats
    workers: int
    start: float | None = None
    #: Worker ids whose shard was dropped under ``on_worker_crash=
    #: "degrade"`` — their ``runs`` entry holds whatever they sealed
    #: before dying.
    degraded: list[int] = field(default_factory=list)
    #: Restarts performed per worker id (absent = never crashed).
    restarts: dict[int, int] = field(default_factory=dict)

    @property
    def num_slots(self) -> int:
        """Distinct grid cells any worker summarized.

        Summaries are binned by flooring against the run's own origin
        (``start``, or 0 when the axis was derived from the data).
        Dividing raw summary starts by the slot width and rounding
        would mis-bucket unaligned axes — with ``start=30`` and
        60-second slots, banker's rounding folds the 90s and 150s
        cells together. The half-up floor only absorbs float error in
        the ``origin + slot * slot_seconds`` reconstruction, never a
        real off-grid offset.
        """
        origin = self.start if self.start is not None else 0.0
        cells = {
            math.floor((summary.start - origin) / summary.slot_seconds + 0.5)
            for run in self.runs
            for summary in run
        }
        return len(cells)

    def collector(
        self,
        k: int | None = None,
        scheme: "Scheme | None" = None,
        feature: "Feature | None" = None,
        config: "EngineConfig | None" = None,
        fill_gaps: bool = True,
    ) -> "Collector":
        """Merge the worker runs and wrap them for classification.

        ``fill_gaps`` (default on) interpolates empty merged slots for
        grid cells no worker spanned, so the classified slot sequence
        is contiguous — matching what a single-process run over the
        same capture emits.
        """
        from repro.core.engine import Feature, Scheme
        from repro.distributed.collector import Collector

        populated = [run for run in self.runs if run]
        if not populated:
            raise ClassificationError(
                "no worker produced any slots; nothing to classify"
            )
        # check_skew off: workers share the host clock by construction,
        # and flow-partitioned runs have uncorrelated per-slot totals,
        # so the tap-oriented skew heuristic would only emit noise.
        return Collector(
            populated,
            k=k,
            scheme=Scheme.CONSTANT_LOAD if scheme is None else scheme,
            feature=Feature.LATENT_HEAT if feature is None else feature,
            config=config,
            fill_gaps=fill_gaps,
            check_skew=False,
        )


class _SendAborted(Exception):
    """Internal: the in-flight send's target worker was replaced.

    Raised out of the restart/drop control handlers when the message
    being written targets the very worker that just changed rings; the
    handler has already replayed (or discarded) the retained spans, so
    the aborted send must simply not resume on the dead ring.
    """


def _drain_queue(q, grace: float = _DRAIN_GRACE_SECONDS) -> None:
    """Discard everything a dead peer left on a queue."""
    while True:
        try:
            q.get(timeout=grace)
        except queue_module.Empty:
            return


class _Dealer:
    """The reader's dealing state: writers, prefix sync, retention.

    In supervised mode every dealt span (the reader-local copy of one
    sub-batch's columns) is retained until the collector confirms a
    sealed summary covering it, and the control queue can swap a
    worker's ring out underneath an in-flight send (``on_wait``). In
    abort mode this is exactly the old dealing loop: no retention, no
    control traffic, no polling.
    """

    def __init__(
        self,
        resolver: "PrefixResolver",
        workers: int,
        ring_specs: list[RingSpec],
        free_queues: list,
        data_queues: list,
        out_queue,
        control_queue,
        supervise: bool,
    ) -> None:
        self.resolver = resolver
        self.workers = workers
        self.free_queues = free_queues
        self.data_queues = data_queues
        self.out_queue = out_queue
        self.control = control_queue
        self.supervise = supervise
        self.sent = [0] * workers
        #: Retained spans per worker: ``(max_ts, timestamps, keys,
        #: sizes)`` copies, oldest first, chronological within and
        #: across spans (capture order).
        self.spans: list[list[tuple]] = [[] for _ in range(workers)]
        self.dropped: set[int] = set()
        self.finished: set[int] = set()
        self.eof = False
        self._deferred: list[tuple] = []
        self.writers = [
            self._make_writer(worker_id, spec)
            for worker_id, spec in enumerate(ring_specs)
        ]

    def _make_writer(self, worker_id: int, spec: RingSpec) -> RingWriter:
        on_wait = None
        if self.supervise:

            def on_wait(worker_id: int = worker_id) -> None:
                self.pump_control(active=worker_id)

        return RingWriter(
            ShmRing.attach(spec),
            self.free_queues[worker_id],
            self.data_queues[worker_id],
            on_wait=on_wait,
        )

    # -- control-queue handling -------------------------------------

    def pump_control(self, active: int | None = None) -> None:
        """Handle queued control messages.

        ``active`` is the worker an in-flight send targets, if any:
        ring swaps (restart/drop) for *other* workers are deferred —
        their queues may be entangled with a send several frames up
        the stack — and are picked up by the next batch-level pump.
        """
        if self.control is None:
            return
        backlog, self._deferred = self._deferred, []
        for message in backlog:
            self._dispatch(message, active)
        while True:
            try:
                message = self.control.get_nowait()
            except queue_module.Empty:
                return
            self._dispatch(message, active)

    def _dispatch(self, message: tuple, active: int | None) -> None:
        tag, worker_id = message[0], message[1]
        if tag == "sealed":
            _, _, end_time = message
            self.spans[worker_id] = [
                span
                for span in self.spans[worker_id]
                if span[0] >= end_time
            ]
        elif tag == "finished":
            self.finished.add(worker_id)
        elif tag in ("restart", "drop"):
            if active is not None and worker_id != active:
                self._deferred.append(message)
                return
            try:
                if tag == "restart":
                    self._handle_restart(message, active)
                else:
                    self._handle_drop(worker_id, active)
            except _SendAborted:
                if active is not None:
                    raise
                # active None: the batch-level pump has no send to
                # abort; a nested handler already did the replay.
        else:  # pragma: no cover - protocol invariant
            raise ReproError(f"unknown control message {tag!r}")

    def _handle_restart(
        self, message: tuple, active: int | None
    ) -> None:
        _, worker_id, ring_spec = message
        old = self.writers[worker_id]
        old.ring.close()
        # The dead incarnation's unconsumed descriptors and returned
        # slots reference the old ring; both queues must be empty
        # before the replacement writer reuses them.
        _drain_queue(self.data_queues[worker_id])
        _drain_queue(self.free_queues[worker_id])
        writer = self._make_writer(worker_id, ring_spec)
        self.writers[worker_id] = writer
        # Ack first: the collector spawns the fresh worker on receipt,
        # so the replay below has a consumer and cannot deadlock on a
        # ring smaller than the retained backlog.
        self.out_queue.put(("restarted", worker_id))
        self.sent[worker_id] = 0
        for span in list(self.spans[worker_id]):
            _, timestamps, keys, sizes = span
            self._send_wire(worker_id, timestamps, keys, sizes)
        if self.eof:
            writer.close()
        if active == worker_id:
            raise _SendAborted()

    def _handle_drop(self, worker_id: int, active: int | None) -> None:
        self.dropped.add(worker_id)
        self.spans[worker_id] = []
        self.writers[worker_id].ring.close()
        if active == worker_id:
            raise _SendAborted()

    # -- dealing -----------------------------------------------------

    def _send_wire(
        self,
        worker_id: int,
        timestamps: np.ndarray,
        keys: np.ndarray,
        sizes: np.ndarray,
    ) -> None:
        # the prefix sync rides the ring as two flat int64 columns:
        # the rows of the resolver's table this worker has not seen
        table = self.resolver.prefixes
        news = slice(self.sent[worker_id], len(table))
        self.sent[worker_id] = news.stop
        self.writers[worker_id].send(
            timestamps, keys, sizes, table.network[news], table.length[news]
        )

    def deal(
        self,
        worker_id: int,
        timestamps: np.ndarray,
        keys: np.ndarray,
        sizes: np.ndarray,
    ) -> None:
        if worker_id in self.dropped:
            return
        if self.supervise:
            # Retain before sending: if the send aborts on a restart,
            # the handler's replay already covers this span.
            self.spans[worker_id].append(
                (
                    float(timestamps[-1]),
                    np.array(timestamps),
                    np.array(keys),
                    np.array(sizes),
                )
            )
        try:
            self._send_wire(worker_id, timestamps, keys, sizes)
        except _SendAborted:
            pass

    def finish(self) -> None:
        """Sentinel every live worker; in supervised mode, wait until
        the collector confirms each one finished (late crashes must
        still be replayable)."""
        self.eof = True
        for worker_id, writer in enumerate(self.writers):
            if worker_id not in self.dropped:
                writer.close()
        if not self.supervise:
            return
        while any(
            worker_id not in self.finished
            and worker_id not in self.dropped
            for worker_id in range(self.workers)
        ):
            try:
                message = self.control.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                continue
            self._dispatch(message, None)
            self.pump_control(active=None)

    def teardown(self) -> None:
        """Final sentinels (crash paths) and ring unmapping."""
        if not self.eof:
            for worker_id, data_queue in enumerate(self.data_queues):
                if worker_id not in self.dropped:
                    data_queue.put(None)
        for writer in self.writers:
            writer.ring.close()


def _reader_main(
    source: PacketSource,
    resolver: "PrefixResolver",
    workers: int,
    ring_specs: list[RingSpec],
    free_queues: list,
    data_queues: list,
    out_queue,
    control_queue=None,
    supervise: bool = False,
    faults: "FaultPlan | None" = None,
) -> None:
    """Scan, resolve and deal packets; always sentinel the workers."""
    stats = {"packets_seen": 0, "packets_skipped": 0, "packets_unrouted": 0}
    dealer: _Dealer | None = None
    try:
        if faults is not None and faults.reader_crash():
            raise ReproError("injected reader fault")
        dealer = _Dealer(
            resolver,
            workers,
            ring_specs,
            free_queues,
            data_queues,
            out_queue,
            control_queue,
            supervise,
        )
        for batch in source.batches():
            stats["packets_seen"] += batch.packets_seen
            stats["packets_skipped"] += batch.packets_skipped
            dealer.pump_control()
            if batch.num_packets == 0:
                continue
            rows = resolver.lookup(batch.destinations)
            routed = rows != NO_ROUTE
            stats["packets_unrouted"] += int((~routed).sum())
            keys = rows[routed]
            if keys.size == 0:
                continue
            # sliced once per batch, not once per worker: the reader
            # is the serial stage, so per-batch work bounds fleet
            # scaling
            timestamps = batch.timestamps[routed]
            sizes = batch.wire_bytes[routed]
            if workers > 1:
                # one stable sort splits the batch into contiguous
                # per-worker segments (order within a worker's
                # sub-stream preserved, like the in-process sharder)
                order, bounds = shard_segments(keys, workers)
                timestamps = timestamps[order]
                keys = keys[order]
                sizes = sizes[order]
            else:
                bounds = np.array([0, keys.size])
            for worker_id in range(workers):
                lo, hi = int(bounds[worker_id]), int(bounds[worker_id + 1])
                if lo == hi:
                    continue
                dealer.deal(
                    worker_id,
                    timestamps[lo:hi],
                    keys[lo:hi],
                    sizes[lo:hi],
                )
        dealer.finish()
        out_queue.put(("reader", stats))
    except BaseException as exc:  # noqa: BLE001 - crosses a process
        out_queue.put(("error", "reader", f"{exc}"))
    finally:
        if dealer is not None:
            dealer.teardown()
        else:
            for data_queue in data_queues:
                data_queue.put(None)


def _worker_main(
    worker_id: int,
    spec: "PipelineSpec",
    slot_seconds: float,
    start: float | None,
    ring_spec: RingSpec,
    free_queue,
    data_queue,
    out_queue,
    incarnation: int = 0,
    resume_time: float | None = None,
    faults: FaultPlan | None = None,
) -> None:
    """Own one shard: aggregate the sub-stream, ship slot summaries.

    A restarted incarnation (``incarnation > 0``) receives the dead
    worker's slot-grid origin as ``start`` and the end of its last
    sealed slot as ``resume_time``: the reader replays whole retained
    spans, so packets below ``resume_time`` are sealed history the
    previous incarnation already shipped and are filtered out here —
    which makes the restarted summary sequence byte-identical to a
    crash-free worker's.
    """
    from repro.pipeline.aggregator import StreamingAggregator

    monitor = f"worker{worker_id}"
    ring = None
    try:
        # Plan rules name their incarnation (default 0), so a
        # supervised restart is not re-killed by the rule that killed
        # its predecessor.
        mode = (
            faults.worker_crash(worker_id, incarnation)
            if faults is not None
            else None
        )
        if mode == "hard":
            os._exit(13)
        if mode == "clean":
            raise ReproError("injected worker fault")
        ring = ShmRing.attach(ring_spec)
        consumer = RingConsumer(ring, free_queue, data_queue)
        resolver = RowResolver()
        aggregator = StreamingAggregator(
            resolver,
            slot_seconds=slot_seconds,
            start=start,
            backend=spec.build_shard(worker_id),
            sample_rate=spec.sampling.applied_rate,
        )

        def ship(frames) -> None:
            for frame in frames:
                summary = SlotSummary.from_frame(frame, slot_seconds, monitor=monitor)
                out_queue.put(("slot", worker_id, summary.to_bytes()))

        for timestamps, keys, sizes, networks, lengths in consumer.batches():
            if mode == "midslot":
                # die while a ring slot descriptor is checked out: the
                # crash tests assert the collector still unlinks the
                # segment
                os._exit(13)
            resolver.extend(networks, lengths)
            if resume_time is not None:
                if timestamps.size and timestamps[0] >= resume_time:
                    # sub-streams are chronological: once a span starts
                    # past the resume point the replay window is over
                    resume_time = None
                else:
                    keep = timestamps >= resume_time
                    timestamps = timestamps[keep]
                    keys = keys[keep]
                    sizes = sizes[keep]
                    if keys.size == 0:
                        continue
            # the columns are views straight into the ring slot; the
            # aggregator consumes them before the loop advances (and
            # thereby frees the slot for the reader to overwrite)
            ship(aggregator.ingest(PacketBatch.of_flows(timestamps, keys, sizes)))
        ship(aggregator.finish())
        out_queue.put(
            (
                "done",
                worker_id,
                {
                    "packets_matched": aggregator.stats.packets_matched,
                    "packets_outside_axis": aggregator.stats.packets_outside_axis,
                    "bytes_matched": aggregator.stats.bytes_matched,
                },
            )
        )
    except BaseException as exc:  # noqa: BLE001 - crosses a process
        out_queue.put(("error", monitor, f"{exc}"))
    finally:
        if ring is not None:
            ring.close()


def _context():
    """Prefer fork (no pickling of sources/resolvers), else default."""
    forced = os.environ.get(START_METHOD_ENV)
    if forced:
        return multiprocessing.get_context(forced)
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _shutdown(processes: list) -> None:
    """Terminate and reap every child; never leave an orphan."""
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(timeout=5.0)
        if process.is_alive():  # pragma: no cover - terminate refused
            process.kill()
            process.join(timeout=5.0)


@dataclass
class _Fleet:
    """Collector-side view of the running reader + workers.

    ``absorb`` returns a supervision event (``("crash", worker_id)``
    or ``("restarted", worker_id)``) when the message needs the
    supervisor's attention, or ``None`` for plain bookkeeping. In
    abort mode (``control is None``) behavior is exactly the
    pre-supervision protocol: worker errors raise.
    """

    reader: object
    workers: list
    runs: list[list[SlotSummary]] = field(default_factory=list)
    stats: AggregationStats = field(default_factory=AggregationStats)
    done: set = field(default_factory=set)
    reader_done: bool = False
    mode: str = "abort"
    control: object = None
    restarts: dict = field(default_factory=dict)
    degraded: set = field(default_factory=set)
    pending_restart: set = field(default_factory=set)

    @property
    def finished(self) -> bool:
        return self.reader_done and len(self.done) == len(self.workers)

    def crashed(self) -> str | None:
        """Name a participant that died without reporting, if any."""
        if not self.reader_done and not self.reader.is_alive():
            return "reader"
        for worker_id, process in enumerate(self.workers):
            if (
                worker_id not in self.done
                and worker_id not in self.pending_restart
                and not process.is_alive()
            ):
                return f"worker {worker_id}"
        return None

    def absorb(self, message: tuple) -> tuple | None:
        tag = message[0]
        if tag == "slot":
            _, worker_id, payload = message
            summary = SlotSummary.from_bytes(payload)
            self.runs[worker_id].append(summary)
            if self.control is not None:
                # Seal receipt, relayed to the reader: spans wholly
                # below this time are durably summarized and need no
                # replay on a restart. Relaying from here (not the
                # worker) guarantees the collector really holds the
                # summary before the reader forgets the packets.
                self.control.put(
                    (
                        "sealed",
                        worker_id,
                        summary.start + summary.slot_seconds,
                    )
                )
        elif tag == "done":
            _, worker_id, stats = message
            self.done.add(worker_id)
            self.stats.packets_matched += stats["packets_matched"]
            self.stats.packets_outside_axis += stats["packets_outside_axis"]
            self.stats.bytes_matched += stats["bytes_matched"]
            if self.control is not None:
                self.control.put(("finished", worker_id))
        elif tag == "reader":
            _, stats = message
            self.reader_done = True
            self.stats.packets_seen += stats["packets_seen"]
            self.stats.packets_skipped += stats["packets_skipped"]
            self.stats.packets_unrouted += stats["packets_unrouted"]
        elif tag == "restarted":
            _, worker_id = message
            return ("restarted", worker_id)
        elif tag == "error":
            _, who, detail = message
            if self.mode != "abort" and who.startswith("worker"):
                worker_id = int(who.removeprefix("worker"))
                if worker_id not in self.done:
                    return ("crash", worker_id)
            raise ReproError(f"parallel ingestion failed in {who}: {detail}")
        else:  # pragma: no cover - protocol invariant
            raise ReproError(f"unknown runner message {tag!r}")
        return None


def parallel_ingest(
    source: PacketSource | None,
    resolver: "PrefixResolver",
    *,
    spec: "PipelineSpec",
    slot_seconds: float = 60.0,
    start: float | None = None,
    ring_slot_packets: int | None = None,
    on_worker_crash: str = "abort",
    max_worker_restarts: int = DEFAULT_MAX_WORKER_RESTARTS,
    faults: FaultPlan | None = None,
) -> ParallelIngestResult:
    """Ingest a packet stream across ``spec.workers`` shard processes.

    Returns one summary run per worker plus fleet-wide aggregation
    stats. Classification output over the merged runs is equivalent to
    a single-process run of ``spec.replace(workers=1, shards=N)`` on
    the same capture (asserted by the parallel-equivalence property
    suite): same elephants per slot — up to flows whose latent heat is
    numerically zero, where the summary wire format's float round trip
    may flip a knife-edge verdict — and every byte conserved.

    ``spec`` (a :class:`~repro.pipeline.spec.PipelineSpec`) is the
    whole configuration: its ``workers`` count sizes the fleet, each
    worker builds its table with ``spec.build_shard(i)``, its sampling
    policy wraps ``source`` in the reader process (the serial stage —
    one thinned stream feeds the whole fleet) and stamps every summary
    the workers ship, and its ``ring_slots`` bounds the batches in
    flight per worker (the reader blocks when a ring is full). A spec
    that also names its input (``source=SourceSpec(...)``) replaces the
    ``source`` argument outright — pass ``source=None`` then; giving
    both is an error.

    ``ring_slot_packets`` sizes each ring slot and defaults to the
    source's chunk size, so a dealt sub-batch almost always fits one
    slot and stays zero-copy end to end.

    ``on_worker_crash`` picks the supervision policy (module docstring
    has the semantics): ``"abort"`` (default) raises on any worker
    death, ``"restart"`` respawns the worker — at most
    ``max_worker_restarts`` times each — replaying its unsealed spans,
    ``"degrade"`` finishes the run without the dead worker's shard.
    ``faults`` injects a deterministic :class:`FaultPlan` into the
    children (the chaos suite's lever; production callers leave it
    ``None``). A dead *reader* always aborts — nothing retains its
    position in the capture.

    Raises :class:`~repro.errors.ReproError` when the reader or any
    worker fails — after terminating the whole fleet, so no child
    outlives the error. The shared-memory rings are unlinked on every
    exit path.
    """
    if source is None:
        # the spec names the input; open it raw — the sampling wrap
        # below is the one thinning stage for the whole fleet
        if spec.source is None:
            raise ClassificationError(
                "parallel_ingest needs a packet source: pass one, or "
                "a spec with source=SourceSpec(...)"
            )
        source = spec.source.open()
    elif spec.source is not None:
        raise ClassificationError(
            "give parallel_ingest a source or a spec with source=, "
            "not both"
        )
    source = spec.wrap_source(source)
    # workers rebuild their table from the spec; the input (possibly
    # whole in-memory columns) stays with the reader
    worker_spec = spec.replace(source=None)
    workers = spec.partitions
    ring_slots = (
        DEFAULT_RING_SLOTS if spec.ring_slots is None else spec.ring_slots
    )
    if slot_seconds <= 0:
        raise ClassificationError("slot_seconds must be positive")
    if on_worker_crash not in CRASH_POLICIES:
        raise ClassificationError(
            f"on_worker_crash must be one of {CRASH_POLICIES}, "
            f"not {on_worker_crash!r}"
        )
    if ring_slot_packets is None:
        ring_slot_packets = getattr(source, "chunk_packets", DEFAULT_CHUNK_PACKETS)

    supervise = on_worker_crash != "abort"
    context = _context()
    rings: list[ShmRing] = []
    processes: list = []
    try:
        rings = [
            ShmRing.create(ring_slots, ring_slot_packets) for _ in range(workers)
        ]
        out_queue = context.Queue()
        control_queue = context.Queue() if supervise else None
        free_queues = [context.Queue() for _ in range(workers)]
        data_queues = [context.Queue() for _ in range(workers)]
        worker_processes = [
            context.Process(
                target=_worker_main,
                args=(
                    worker_id,
                    worker_spec,
                    slot_seconds,
                    start,
                    rings[worker_id].spec,
                    free_queues[worker_id],
                    data_queues[worker_id],
                    out_queue,
                    0,
                    None,
                    faults,
                ),
                daemon=True,
                name=f"repro-worker-{worker_id}",
            )
            for worker_id in range(workers)
        ]
        reader = context.Process(
            target=_reader_main,
            args=(
                source,
                resolver,
                workers,
                [ring.spec for ring in rings],
                free_queues,
                data_queues,
                out_queue,
                control_queue,
                supervise,
                faults,
            ),
            daemon=True,
            name="repro-reader",
        )
        fleet = _Fleet(
            reader=reader,
            workers=worker_processes,
            runs=[[] for _ in range(workers)],
            mode=on_worker_crash,
            control=control_queue,
        )
        #: Ring + resume coordinates for workers awaiting the reader's
        #: ("restarted", id) ack.
        restart_info: dict[int, tuple[ShmRing, float | None, float | None]] = {}

        def absorb_trailing() -> list[tuple]:
            """Absorb in-flight messages until the queue goes quiet."""
            events: list[tuple] = []
            while True:
                try:
                    message = out_queue.get(timeout=_DRAIN_GRACE_SECONDS)
                except queue_module.Empty:
                    return events
                event = fleet.absorb(message)
                if event is not None:
                    events.append(event)

        def handle_event(event: tuple) -> None:
            tag, worker_id = event
            if tag == "crash":
                handle_crash(worker_id)
            else:  # "restarted"
                spawn_restart(worker_id)

        def handle_crash(worker_id: int) -> None:
            if worker_id in fleet.done or worker_id in fleet.pending_restart:
                return
            # Reap the corpse first: once joined, its final messages
            # are all in the pipe, so the trailing absorb below leaves
            # runs[worker_id] complete — the resume point must not
            # miss a sealed slot still in flight, or the replay would
            # double-count it.
            fleet.workers[worker_id].join(timeout=5.0)
            trailing = absorb_trailing()
            if worker_id not in fleet.done:
                if on_worker_crash == "degrade":
                    fleet.degraded.add(worker_id)
                    fleet.done.add(worker_id)
                    control_queue.put(("drop", worker_id))
                else:
                    restart(worker_id)
            for event in trailing:
                handle_event(event)

        def restart(worker_id: int) -> None:
            count = fleet.restarts.get(worker_id, 0)
            if count >= max_worker_restarts:
                raise ReproError(
                    f"parallel ingestion failed: worker {worker_id} "
                    f"crashed {count + 1} times "
                    f"(restart budget {max_worker_restarts})"
                )
            fleet.restarts[worker_id] = count + 1
            ring = ShmRing.create(ring_slots, ring_slot_packets)
            rings.append(ring)
            run = fleet.runs[worker_id]
            if run:
                last = run[-1]
                origin = last.start - last.slot * last.slot_seconds
                resume_time = last.start + last.slot_seconds
            else:
                origin, resume_time = start, None
            restart_info[worker_id] = (ring, origin, resume_time)
            fleet.pending_restart.add(worker_id)
            control_queue.put(("restart", worker_id, ring.spec))

        def spawn_restart(worker_id: int) -> None:
            ring, origin, resume_time = restart_info.pop(worker_id)
            incarnation = fleet.restarts[worker_id]
            process = context.Process(
                target=_worker_main,
                args=(
                    worker_id,
                    worker_spec,
                    slot_seconds,
                    origin,
                    ring.spec,
                    free_queues[worker_id],
                    data_queues[worker_id],
                    out_queue,
                    incarnation,
                    resume_time,
                    faults,
                ),
                daemon=True,
                name=f"repro-worker-{worker_id}-r{incarnation}",
            )
            fleet.workers[worker_id] = process
            processes.append(process)
            process.start()
            fleet.pending_restart.discard(worker_id)

        processes = [reader, *worker_processes]
        for process in processes:
            process.start()
        # Consecutive idle polls a dead-looking process gets before the
        # collector acts on the corpse — its queue may still hold its
        # final messages (error reports included).
        grace_polls = max(1, int(_CRASH_GRACE_SECONDS / _POLL_SECONDS))
        idle_polls: dict[str, int] = {}
        while not fleet.finished:
            try:
                message = out_queue.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                crashed = fleet.crashed()
                if crashed is None:
                    idle_polls.clear()
                    continue
                polls = idle_polls.get(crashed, 0) + 1
                idle_polls[crashed] = polls
                if polls < grace_polls:
                    continue
                del idle_polls[crashed]
                if crashed == "reader" or not supervise:
                    raise ReproError(
                        f"parallel ingestion failed: {crashed} exited "
                        "without finishing (killed or crashed hard)"
                    )
                handle_crash(int(crashed.split()[1]))
                continue
            idle_polls.clear()
            event = fleet.absorb(message)
            if event is not None:
                handle_event(event)
    finally:
        _shutdown(processes)
        for ring in rings:
            ring.destroy()
    return ParallelIngestResult(
        runs=fleet.runs,
        stats=fleet.stats,
        workers=workers,
        start=start,
        degraded=sorted(fleet.degraded),
        restarts=dict(fleet.restarts),
    )


__all__ = [
    "CRASH_POLICIES",
    "DEFAULT_MAX_WORKER_RESTARTS",
    "ParallelIngestResult",
    "RowResolver",
    "START_METHOD_ENV",
    "parallel_ingest",
]
