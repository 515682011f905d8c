"""The streaming pipeline: source → aggregator → classifier.

This package makes slot-at-a-time processing the canonical execution
path. Packet sources stream columnar batches, the streaming aggregator
bins them into slot frames over a dynamically discovered flow
population, and the pipeline engine classifies each frame as it
completes — with memory bounded by O(flows × window), independent of
capture length. Batch execution is a thin wrapper: collect the stream
and you get exactly what the batch engine computes.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "aggregator": (
            "AggregatingSlotSource",
            "PrefixResolver",
            "StreamingAggregator",
        ),
        "backends": (
            "ADMISSION_NAMES",
            "BACKEND_NAMES",
            "RESIDUAL_PREFIX",
            "AggregationBackend",
            "ArraySketchAggregation",
            "ExactAggregation",
            "SketchAggregation",
            "SketchSlotSource",
            "capacity_for_budget",
            "make_backend",
            "parse_memory_budget",
        ),
        "engine": (
            "StreamCollector",
            "StreamEvent",
            "StreamingPipeline",
            "classify_matrix_streaming",
            "run_stream",
        ),
        "sampling": (
            "SAMPLING_MODES",
            "UNSAMPLED",
            "SampledPacketSource",
            "SamplingSpec",
        ),
        "sharded": ("ShardedAggregation", "shard_of"),
        "sources": (
            "ArrayPacketSource",
            "CsvPacketSource",
            "MatrixSlotSource",
            "PacketBatch",
            "PacketSource",
            "PcapPacketSource",
            "ScenarioSlotSource",
            "SlotFrame",
            "SlotSource",
        ),
        "spec": ("SOURCE_KINDS", "PipelineSpec", "SourceSpec"),
    },
)
