"""Distributed aggregation: monitors → summaries → merge → classify.

The paper's per-link classification assumes one monitor sees all
traffic. This package is the multi-monitor path: each monitor reduces
its slice of a link to per-slot :class:`SlotSummary` records (a
mergeable candidate table plus a byte-conserving residual), a
:class:`Collector` sums the summaries prefix-wise, re-truncates to a
capacity, and classifies the merged stream through the ordinary online
pipeline. :func:`parallel_ingest` runs the same dataflow across real
processes on one host — the caller dealing hash-partitioned packets to
worker-owned backends whose slot summaries meet back in the caller —
while :class:`~repro.pipeline.sharded.ShardedAggregation` remains the
in-process flavour of the identical split.
:class:`CollectorService` is the over-the-network flavour: a live TCP
daemon (``repro collect --listen``) that monitors stream summaries
into and ``repro query`` reads merged state out of, sealing slots
incrementally through the very same merge primitives.
:func:`estimate_clock_skew` is the collector's guard against monitors
whose clocks drifted past a slot boundary.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "checkpoint": ("CheckpointStore",),
        "client": (
            "MonitorClient",
            "parse_address",
            "publish_summaries",
            "query_service",
        ),
        "collector": (
            "RESULT_SCHEMA",
            "Collector",
            "MergedSlotSource",
            "elephant_entries",
            "result_envelope",
        ),
        "faults": ("FaultPlan", "FaultRule"),
        "framing": (
            "FrameDecoder",
            "encode_frame",
            "encode_json_frame",
            "encode_summary",
        ),
        "merge": (
            "MergedRun",
            "estimate_clock_skew",
            "estimate_skew_from_totals",
            "merge_runs",
            "merge_summaries",
        ),
        "partition": ("StridedPacketSource",),
        "runner": ("ParallelIngestResult", "RowResolver", "parallel_ingest"),
        "service": (
            "CollectorService",
            "LiveCollector",
            "LiveLink",
            "ServiceHandle",
        ),
        "shm_ring": (
            "DEFAULT_RING_SLOTS",
            "RingConsumer",
            "RingSpec",
            "RingWriter",
            "ShmRing",
        ),
        "summary": ("SlotSummary", "load_summaries", "save_summaries"),
    },
)
