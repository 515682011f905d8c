"""True multi-process ingestion: caller → shm rings → workers → caller.

:class:`~repro.pipeline.sharded.ShardedAggregation` rehearses the
partitioned dataflow inside one process; this module performs it for
real. A fleet is the process that calls :func:`parallel_ingest` and
its workers, nothing else. The **caller** scans a
:class:`~repro.pipeline.sources.PacketSource`, resolves destinations to
flow keys once, and deals each packet to the worker owning its key —
the same Fibonacci hash (:func:`~repro.pipeline.sharded.shard_of`) the
in-process sharder uses, so worker ``i`` sees exactly the sub-stream
shard ``i`` would. Each **worker** process owns one aggregation backend
(``spec.build_shard()`` — the table each shard of a sharded
single-process run holds), bins its sub-stream into slots, and
serializes every completed slot as a
:meth:`~repro.distributed.summary.SlotSummary.to_bytes` payload back to
the caller, which parses the wire records between batches and
classifies the merged link through
:class:`~repro.distributed.collector.Collector` — whose
:func:`~repro.distributed.merge.merge_runs` seals through the
:class:`~repro.distributed.merge.LinkMerge` a live collector link
runs, each worker one monitor.

Packets never cross a pickled queue. The caller writes each dealt
sub-batch's column arrays straight into a per-worker shared-memory
ring (:mod:`~repro.distributed.shm_ring`), and only tiny slot
descriptors travel over queues; workers ingest numpy views of the ring
pages in place. The ring's free list is the backpressure bound: with
all ``ring_slots`` slots in flight the caller blocks instead of
buffering the capture — receiving summaries and watching that worker's
liveness while it waits. One queue comes up from the workers, carrying
``slot``, ``done`` and ``error``. The caller creates the rings and
always unlinks them — success, error, or crash — so no ``/dev/shm``
segment outlives :func:`parallel_ingest`. A worker crash, or an error
of the source or the resolver, ends the run: it surfaces as one
:class:`~repro.errors.ReproError` naming the worker or the reader —
with every child process terminated first, never orphaned — which the
CLI maps to exit code 2. No worker is restarted; a send blocked on a
dead worker's full ring gives up within seconds.

Captures are assumed chronological (pcap order). Out-of-order packets
are dropped per worker against the worker's own open slot, which can
admit a straggler a single-process run would have dropped; equivalence
with :class:`ShardedAggregation` is exact for in-order input.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
import queue as queue_module
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.distributed.faults import FaultPlan
from repro.distributed.framing import grid_cell
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
from repro.net.prefix import PrefixColumns
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


class RowResolver:
    """Identity resolver over pre-resolved keys.

    Workers receive flow keys the caller already resolved, so their
    aggregator's "resolution" is the identity; the prefix table that
    gives keys meaning starts empty and is grown from the caller's
    messages (``prefixes`` is append-only, like every repo resolver).
    """

    def __init__(self) -> None:
        self.prefixes = PrefixColumns()

    def __len__(self) -> int:
        return len(self.prefixes)

    def extend(self, networks: Sequence[int], lengths: Sequence[int]) -> None:
        """Append newly discovered prefixes (caller → worker sync), as
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

    @property
    def num_slots(self) -> int:
        """Distinct grid cells any worker summarized."""
        return len(
            {
                grid_cell(summary.start, summary.slot_seconds)
                for run in self.runs
                for summary in run
            }
        )

    def collector(
        self,
        scheme: "Scheme | None" = None,
        feature: "Feature | None" = None,
        config: "EngineConfig | None" = None,
    ) -> "Collector":
        """Merge the worker runs and wrap them for classification.

        Every merged entry is kept, and an empty merged slot fills each
        grid cell no worker spanned, so the classified slot sequence is
        contiguous — matching what a single-process run over the same
        capture emits.
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
            scheme=Scheme.CONSTANT_LOAD if scheme is None else scheme,
            feature=Feature.LATENT_HEAT if feature is None else feature,
            config=config,
            fill_gaps=True,
            check_skew=False,
        )


def _worker_main(
    worker_id: int,
    spec: "PipelineSpec",
    slot_seconds: float,
    ring_spec: RingSpec,
    free_queue,
    data_queue,
    out_queue,
    mode: str | None,
) -> None:
    """Own one shard: aggregate the sub-stream, ship slot summaries.

    ``mode`` is the injected crash of this worker, if the fault plan
    names one.
    """
    from repro.pipeline.aggregator import StreamingAggregator

    monitor = f"worker{worker_id}"
    ring = None
    try:
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
            backend=spec.build_shard(),
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
            # the columns are views straight into the ring slot; the
            # aggregator consumes them before the loop advances (and
            # thereby frees the slot for the caller to overwrite)
            batch = PacketBatch(timestamps, keys, sizes, timestamps.size)
            ship(aggregator.ingest(batch))
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
    """Prefer fork (the cheapest start), else the platform default."""
    methods = multiprocessing.get_all_start_methods()
    forced = os.environ.get(START_METHOD_ENV)
    if forced:
        if forced not in methods:
            raise ClassificationError(
                f"{START_METHOD_ENV} must be one of {methods}, "
                f"not {forced!r}"
            )
        return multiprocessing.get_context(forced)
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _read(
    source: PacketSource,
    resolver: "PrefixResolver",
    stats: AggregationStats,
    faults: FaultPlan | None,
):
    """Scan and resolve: one routed ``(timestamps, keys, sizes)`` per batch.

    The serial stage of the fleet, run where it is called from. What
    the source or the resolver raises leaves as a ``ReproError`` naming
    the reader, the original as its cause; an exception of the loop
    that consumes the batches is never thrown in here.
    """
    try:
        if faults is not None and faults.reader_crash():
            raise ReproError("injected reader fault")
        for batch in source.batches():
            stats.packets_seen += batch.packets_seen
            stats.packets_skipped += batch.packets_skipped
            if batch.num_packets == 0:
                continue
            rows = resolver.lookup(batch.destinations)
            routed = rows != NO_ROUTE
            stats.packets_unrouted += int((~routed).sum())
            keys = rows[routed]
            if keys.size == 0:
                continue
            # sliced once per batch, not once per worker: this loop is
            # the serial stage, so per-batch work bounds fleet scaling
            yield batch.timestamps[routed], keys, batch.wire_bytes[routed]
    except Exception as exc:
        raise ReproError(
            f"parallel ingestion failed in reader: {exc}"
        ) from exc


@dataclass
class _Fleet:
    """The caller's side of a run: all there is to know of the workers.

    One object owns the rings and their writers, the worker processes
    and the summary runs received so far, so the code that learns a
    worker died is the code that deals to it. What the workers send —
    ``slot``, ``done``, ``error`` — arrives on the one ``out_queue``
    and is absorbed between batches, while a send waits on a full ring,
    and after the last batch until every worker is done.
    """

    resolver: "PrefixResolver"
    spec: "PipelineSpec"
    workers: int
    slot_seconds: float
    ring_shape: tuple[int, int]
    faults: FaultPlan | None

    def __post_init__(self) -> None:
        workers = self.workers
        self.context = _context()
        self.out_queue = self.context.Queue()
        self.runs: list[list[SlotSummary]] = [[] for _ in range(workers)]
        self.stats = AggregationStats()
        self.done: set[int] = set()
        #: When each unfinished worker was first found dead.
        self.dead_since: dict[int, float] = {}
        #: Rows of the resolver's table each worker has been told.
        self.sent = [0] * workers
        #: Every ring created, writer made and process started, in
        #: worker order: what :meth:`shutdown` has to leave nothing of.
        self.rings: list[ShmRing] = []
        self.writers: list[RingWriter] = []
        self.processes: list = []

    def launch(self) -> None:
        """Start every worker, each on a ring and queues of its own."""
        for worker_id in range(self.workers):
            ring = ShmRing.create(*self.ring_shape)
            self.rings.append(ring)
            free_queue, data_queue = self.context.Queue(), self.context.Queue()
            mode = (
                self.faults.worker_crash(worker_id)
                if self.faults is not None
                else None
            )
            process = self.context.Process(
                target=_worker_main,
                args=(
                    worker_id,
                    self.spec,
                    self.slot_seconds,
                    ring.spec,
                    free_queue,
                    data_queue,
                    self.out_queue,
                    mode,
                ),
                daemon=True,
                name=f"repro-worker-{worker_id}",
            )
            self.writers.append(
                RingWriter(
                    ring,
                    free_queue,
                    data_queue,
                    on_wait=functools.partial(self.wait_on, worker_id),
                )
            )
            process.start()
            self.processes.append(process)

    def wait_on(self, worker_id: int) -> None:
        """A send waits on this worker's full ring: keep receiving, and
        do not wait on a consumer that is gone."""
        self.drain()
        if self._dead(worker_id):
            self.bury(worker_id)

    # -- receiving ---------------------------------------------------

    def drain(self, grace: float = 0.0) -> None:
        """Absorb what has arrived, until the queue is quiet for ``grace``."""
        while True:
            try:
                message = self.out_queue.get(timeout=grace)
            except queue_module.Empty:
                return
            self.absorb(message)

    def absorb(self, message: tuple) -> None:
        tag, worker_id, body = message
        if tag == "slot":
            self.runs[worker_id].append(SlotSummary.from_bytes(body))
        elif tag == "done":
            self.done.add(worker_id)
            self.stats.packets_matched += body["packets_matched"]
            self.stats.packets_outside_axis += body["packets_outside_axis"]
            self.stats.bytes_matched += body["bytes_matched"]
        elif tag == "error":
            # an error names its sender as the summaries do: "worker3"
            raise ReproError(
                f"parallel ingestion failed in {worker_id}: {body}"
            )
        else:  # pragma: no cover - protocol invariant
            raise ReproError(f"unknown runner message {tag!r}")

    # -- liveness ----------------------------------------------------

    def _dead(self, worker_id: int) -> bool:
        """Whether to act on this worker as a corpse.

        A worker that looks dead gets ``_CRASH_GRACE_SECONDS`` first —
        the queue may still hold its final messages (``done`` or an
        error report included).
        """
        if worker_id in self.done:
            return False
        if worker_id not in self.dead_since:
            if self.processes[worker_id].is_alive():
                return False
            self.dead_since[worker_id] = time.monotonic()
        waited = time.monotonic() - self.dead_since[worker_id]
        return waited >= _CRASH_GRACE_SECONDS

    def poll(self) -> None:
        """Batch boundary: receive, then end the run if a worker died —
        one a blocked send was not waiting on is only noted until here."""
        self.drain()
        for worker_id in range(self.workers):
            if self._dead(worker_id):
                self.bury(worker_id)

    def bury(self, worker_id: int) -> None:
        """Reap a dead worker; raise unless it had finished after all."""
        # Once joined, its final messages are all in the pipe, so the
        # trailing drain sees its ``done`` or its error report.
        self.processes[worker_id].join(timeout=5.0)
        self.drain(_DRAIN_GRACE_SECONDS)
        if worker_id not in self.done:
            raise ReproError(
                f"parallel ingestion failed: worker {worker_id} exited "
                "without finishing (killed or crashed hard)"
            )

    # -- dealing -----------------------------------------------------

    def deal(
        self, timestamps: np.ndarray, keys: np.ndarray, sizes: np.ndarray
    ) -> None:
        """Hand each worker its share of one routed batch."""
        if self.workers > 1:
            # one stable sort splits the batch into contiguous
            # per-worker segments (order within a worker's sub-stream
            # preserved, like the in-process sharder)
            order, bounds = shard_segments(keys, self.workers)
            timestamps = timestamps[order]
            keys = keys[order]
            sizes = sizes[order]
        else:
            bounds = np.array([0, keys.size])
        # the prefix sync rides the ring as two flat int64 columns: the
        # rows of the resolver's table a worker has not seen
        table = self.resolver.prefixes
        for worker_id in range(self.workers):
            lo, hi = int(bounds[worker_id]), int(bounds[worker_id + 1])
            if lo == hi:
                continue
            news = slice(self.sent[worker_id], len(table))
            self.sent[worker_id] = news.stop
            self.writers[worker_id].send(
                timestamps[lo:hi],
                keys[lo:hi],
                sizes[lo:hi],
                table.network[news],
                table.length[news],
            )

    def finish(self) -> None:
        """Sentinel every worker, then receive until all are done."""
        for writer in self.writers:
            writer.close()
        while len(self.done) < self.workers:
            try:
                self.absorb(self.out_queue.get(timeout=_POLL_SECONDS))
            except queue_module.Empty:
                pass
            self.poll()

    def shutdown(self) -> None:
        """Terminate and reap every child — never leave an orphan —
        then unlink every ring."""
        for process in self.processes:
            if process.is_alive():
                process.terminate()
        for process in self.processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - terminate refused
                process.kill()
                process.join(timeout=5.0)
        for ring in self.rings:
            ring.destroy()


def parallel_ingest(
    source: PacketSource | None,
    resolver: "PrefixResolver",
    *,
    spec: "PipelineSpec",
    slot_seconds: float = 60.0,
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
    worker builds its table with ``spec.build_shard()``, its sampling
    policy wraps ``source`` before it is read (the serial stage — one
    thinned stream feeds the whole fleet) and stamps every summary the
    workers ship, and its ``ring_slots`` bounds the batches in flight
    per worker (the caller blocks when a ring is full). A spec
    that also names its input (``source=SourceSpec(...)``) replaces the
    ``source`` argument outright — pass ``source=None`` then; giving
    both is an error.

    Each worker's slot 0 is its first packet's slot on the absolute
    grid every merged link aligns to. A ring slot holds the source's
    ``chunk_packets`` rows, so a dealt sub-batch almost always fits
    one slot and stays zero-copy end to end; a larger one spills over
    several.

    ``faults`` injects a deterministic :class:`FaultPlan` (the chaos
    suite's lever; production callers leave it ``None``).

    The calling process is the reader: ``source`` is consumed and
    ``resolver`` is looked up here, so a resolver that discovers its
    table (:class:`~repro.routing.lpm.FixedLengthResolver`) is **grown
    in place** and holds the run's prefixes afterwards, and neither
    has to be picklable under any start method.

    Raises :class:`~repro.errors.ReproError` when a worker fails or
    dies, or when the source or the resolver raises (``parallel
    ingestion failed in reader: …``, the original as ``__cause__``) —
    after terminating the whole fleet, so no child outlives the error.
    The shared-memory rings are unlinked on every exit path,
    ``KeyboardInterrupt`` included.
    """
    if not 0.0 < slot_seconds < math.inf:
        raise ClassificationError("slot_seconds must be finite and > 0")
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
    # whole in-memory columns) stays with the caller
    worker_spec = spec.replace(source=None)
    workers = spec.partitions
    ring_slots = (
        DEFAULT_RING_SLOTS if spec.ring_slots is None else spec.ring_slots
    )
    fleet = _Fleet(
        resolver,
        worker_spec,
        workers,
        slot_seconds,
        (
            ring_slots,
            getattr(source, "chunk_packets", DEFAULT_CHUNK_PACKETS),
        ),
        faults,
    )
    try:
        fleet.launch()
        for columns in _read(source, resolver, fleet.stats, faults):
            fleet.poll()
            fleet.deal(*columns)
        fleet.finish()
    finally:
        fleet.shutdown()
    return ParallelIngestResult(
        runs=fleet.runs, stats=fleet.stats, workers=workers
    )


__all__ = [
    "ParallelIngestResult",
    "RowResolver",
    "START_METHOD_ENV",
    "parallel_ingest",
]
