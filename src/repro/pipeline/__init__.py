"""The streaming pipeline: source → aggregator → classifier.

This package makes slot-at-a-time processing the canonical execution
path. Packet sources stream columnar batches, the streaming aggregator
bins them into slot frames over a dynamically discovered flow
population, and the pipeline engine classifies each frame as it
completes — with memory bounded by O(flows × window), independent of
capture length. The batch engine
(:class:`~repro.core.engine.ClassificationEngine`) classifies a whole
matrix with its own classifiers; the suite holds the two equal slot by
slot.
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
            "Population",
            "SketchSlotSource",
            "capacity_for_budget",
            "make_backend",
            "parse_memory_budget",
        ),
        "engine": ("StreamEvent", "StreamingPipeline"),
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
            "SlotFrame",
            "SlotSource",
        ),
        "spec": ("SOURCE_KINDS", "PipelineSpec", "SourceSpec"),
    },
)
