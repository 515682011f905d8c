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
into and ``repro query`` reads merged state out of. Every merged link
— ``repro merge``, a fleet's collector, a live daemon's — is sealed by
one :class:`LinkMerge`, whose skew estimate guards against monitors
whose clocks drifted past a slot boundary.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "checkpoint": ("CheckpointStore",),
        "client": ("MonitorClient", "parse_address", "query_service"),
        "collector": ("Collector", "MergedSlotSource"),
        "envelope": ("RESULT_SCHEMA", "elephant_entries", "result_envelope"),
        "faults": ("FaultPlan", "FaultRule"),
        "framing": (
            "FrameDecoder",
            "encode_frame",
            "encode_json_frame",
            "encode_summary",
        ),
        "merge": ("LinkMerge", "MergedRun", "merge_runs", "merge_summaries"),
        "partition": ("StridedPacketSource",),
        "runner": ("ParallelIngestResult", "RowResolver", "parallel_ingest"),
        "service": ("CollectorService", "LiveCollector", "LiveLink"),
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
