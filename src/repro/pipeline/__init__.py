"""The streaming pipeline: source → aggregator → classifier.

This package makes slot-at-a-time processing the canonical execution
path. Packet sources stream columnar batches, the streaming aggregator
bins them into slot frames over a dynamically discovered flow
population, and the pipeline engine classifies each frame as it
completes — with memory bounded by O(flows × window), independent of
capture length. Batch execution is a thin wrapper: collect the stream
and you get exactly what the batch engine computes.
"""

from repro.pipeline.aggregator import (
    AggregatingSlotSource,
    PrefixResolver,
    StreamingAggregator,
)
from repro.pipeline.backends import (
    ADMISSION_NAMES,
    BACKEND_NAMES,
    RESIDUAL_PREFIX,
    AggregationBackend,
    ArraySketchAggregation,
    ExactAggregation,
    SketchAggregation,
    SketchSlotSource,
    capacity_for_budget,
    make_backend,
    parse_memory_budget,
)
from repro.pipeline.engine import (
    StreamCollector,
    StreamEvent,
    StreamingPipeline,
    classify_matrix_streaming,
    run_stream,
)
from repro.pipeline.sampling import (
    SAMPLING_MODES,
    UNSAMPLED,
    SampledPacketSource,
    SamplingSpec,
)
from repro.pipeline.sharded import ShardedAggregation, shard_of
from repro.pipeline.sources import (
    ArrayPacketSource,
    CsvPacketSource,
    MatrixSlotSource,
    PacketBatch,
    PacketSource,
    PcapPacketSource,
    ScenarioSlotSource,
    SlotFrame,
    SlotSource,
)
from repro.pipeline.spec import SOURCE_KINDS, PipelineSpec, SourceSpec

__all__ = [
    "ADMISSION_NAMES",
    "AggregatingSlotSource",
    "AggregationBackend",
    "ArrayPacketSource",
    "ArraySketchAggregation",
    "BACKEND_NAMES",
    "CsvPacketSource",
    "ExactAggregation",
    "RESIDUAL_PREFIX",
    "ShardedAggregation",
    "shard_of",
    "SketchAggregation",
    "SketchSlotSource",
    "capacity_for_budget",
    "make_backend",
    "parse_memory_budget",
    "MatrixSlotSource",
    "PacketBatch",
    "PacketSource",
    "PcapPacketSource",
    "PipelineSpec",
    "PrefixResolver",
    "SAMPLING_MODES",
    "SOURCE_KINDS",
    "SourceSpec",
    "SampledPacketSource",
    "SamplingSpec",
    "ScenarioSlotSource",
    "SlotFrame",
    "SlotSource",
    "StreamCollector",
    "StreamEvent",
    "StreamingAggregator",
    "StreamingPipeline",
    "UNSAMPLED",
    "classify_matrix_streaming",
    "run_stream",
]
