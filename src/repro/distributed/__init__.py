"""Distributed aggregation: monitors → summaries → merge → classify.

The paper's per-link classification assumes one monitor sees all
traffic. This package is the multi-monitor path: each monitor reduces
its slice of a link to per-slot :class:`SlotSummary` records (a
mergeable candidate table plus a byte-conserving residual), a
:class:`Collector` sums the summaries prefix-wise, re-truncates to a
capacity, and classifies the merged stream through the ordinary online
pipeline. :func:`parallel_ingest` runs the same dataflow across real
processes on one host — a reader dealing hash-partitioned packets to
worker-owned backends whose slot summaries meet at the collector —
while :class:`~repro.pipeline.sharded.ShardedAggregation` remains the
in-process flavour of the identical split.
:class:`CollectorService` is the over-the-network flavour: a live TCP
daemon (``repro collect --listen``) that monitors stream summaries
into and ``repro query`` reads merged state out of, sealing slots
incrementally through the very same merge primitives.
:func:`estimate_clock_skew` is the collector's guard against monitors
whose clocks drifted past a slot boundary.
"""

from repro.distributed.collector import (
    RESULT_SCHEMA,
    Collector,
    MergedSlotSource,
    elephant_entries,
    result_envelope,
)
from repro.distributed.checkpoint import CheckpointStore
from repro.distributed.faults import FaultPlan, FaultRule
from repro.distributed.framing import (
    FrameDecoder,
    encode_frame,
    encode_json_frame,
    encode_summary,
)
from repro.distributed.merge import (
    MergedRun,
    estimate_clock_skew,
    estimate_skew_from_totals,
    merge_runs,
    merge_summaries,
)
from repro.distributed.partition import StridedPacketSource
from repro.distributed.runner import (
    ParallelIngestResult,
    RowResolver,
    parallel_ingest,
)
from repro.distributed.service import (
    CollectorService,
    LiveCollector,
    LiveLink,
    MonitorClient,
    ServiceHandle,
    parse_address,
    publish_summaries,
    query_service,
)
from repro.distributed.shm_ring import (
    DEFAULT_RING_SLOTS,
    RingConsumer,
    RingSpec,
    RingWriter,
    ShmRing,
)
from repro.distributed.summary import (
    SlotSummary,
    load_summaries,
    save_summaries,
)

__all__ = [
    "CheckpointStore",
    "Collector",
    "CollectorService",
    "DEFAULT_RING_SLOTS",
    "FaultPlan",
    "FaultRule",
    "FrameDecoder",
    "LiveCollector",
    "LiveLink",
    "MergedRun",
    "MergedSlotSource",
    "MonitorClient",
    "ParallelIngestResult",
    "RESULT_SCHEMA",
    "RingConsumer",
    "RingSpec",
    "RingWriter",
    "RowResolver",
    "ServiceHandle",
    "ShmRing",
    "SlotSummary",
    "StridedPacketSource",
    "elephant_entries",
    "encode_frame",
    "encode_json_frame",
    "encode_summary",
    "estimate_clock_skew",
    "estimate_skew_from_totals",
    "load_summaries",
    "merge_runs",
    "merge_summaries",
    "parallel_ingest",
    "parse_address",
    "publish_summaries",
    "query_service",
    "result_envelope",
    "save_summaries",
]
