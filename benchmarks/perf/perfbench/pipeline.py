"""The single-process pipeline, driven through its public pieces.

:func:`run_pipeline` is what ``repro stream --json`` does for a packet
input — open the spec's source behind its sampling front-end, bin it
with a :class:`StreamingAggregator`, classify each sealed slot with
:meth:`StreamingPipeline.observe`, serialise the envelope — written
out so the benchmark can run it in a child process (the ``mem-*``
workloads), hold on to the frames for the conservation checks, and,
in a traced run, put a span around every layer boundary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.distributed import SlotSummary, elephant_entries, result_envelope
from repro.pipeline import (
    AggregatingSlotSource,
    PipelineSpec,
    ShardedAggregation,
    StreamingAggregator,
    StreamingPipeline,
    make_backend,
)

from perfbench.inputs import SLOT_SECONDS
from perfbench.spans import (
    TracedBackend,
    TracedResolver,
    TracedSource,
    Tracer,
    span_of,
)


@dataclass
class PipelineRun:
    """Everything one pass produced that a check or a replay reads."""

    envelope: dict
    envelope_json: str
    packets_seen: int
    packets_matched: int
    bytes_matched: int
    #: Per sealed slot: (bytes in flow rows, bytes in the residual row).
    slot_bytes: list[tuple[float, float]]
    residual_fraction: float
    kept_share: float
    rejected_bytes: float
    frames: list = field(default_factory=list)

    def facts(self) -> dict:
        """The JSON a child process hands back to the benchmark."""
        return {
            "envelope": self.envelope,
            "packets_seen": self.packets_seen,
            "packets_matched": self.packets_matched,
            "bytes_matched": self.bytes_matched,
            "slot_bytes": self.slot_bytes,
            "residual_fraction": self.residual_fraction,
        }


def _traced_backend(spec: PipelineSpec, tracer: Tracer, log: list | None):
    backend = spec.build_backend() or make_backend("exact")
    if spec.shards == 1:
        return TracedBackend(backend, tracer, log=log)
    # the sharder accepts any fresh inner backends, so the proxies go
    # between it and its shards: the outer span's self time is the
    # routing the split adds
    shards = [
        TracedBackend(shard, tracer, log=log) for shard in backend.shards
    ]
    return TracedBackend(ShardedAggregation(shards), tracer, name="sharded")


def run_pipeline(
    spec: PipelineSpec,
    resolver,
    tracer: Tracer | None = None,
    backend_log: list | None = None,
    keep_frames: bool = False,
) -> PipelineRun:
    """One pass of ``spec.source`` through aggregate → classify → JSON.

    With ``tracer`` the source, sampler, resolver and backend are
    wrapped in timing proxies and the slot loop's own steps get spans;
    without it no proxy is installed at all.
    """
    source = spec.source.open()
    backend = spec.build_backend()
    if tracer is not None:
        source = TracedSource(source, tracer, "sources.read_parse")
        resolver = TracedResolver(resolver, tracer)
        backend = _traced_backend(spec, tracer, backend_log)
    packets = sampler = spec.wrap_source(source)
    if sampler is source:
        sampler = None
    elif tracer is not None:
        packets = TracedSource(sampler, tracer, "sampling.select")
    aggregator = StreamingAggregator(
        resolver,
        slot_seconds=SLOT_SECONDS,
        backend=backend,
        sample_rate=spec.sampling.applied_rate,
    )
    pipeline = StreamingPipeline(
        AggregatingSlotSource(packets, aggregator), sampling=spec.sampling
    )
    entries = []
    slot_bytes = []
    frames = []
    slots = iter(pipeline.source.slots())
    while True:
        with span_of(tracer, "aggregator.ingest") as span:
            frame = next(slots, None)
            if frame is not None:
                span.rows = frame.num_flows
        if frame is None:
            break
        with span_of(tracer, "classify.observe", rows=frame.num_flows):
            event = pipeline.observe(frame)
        with span_of(
            tracer, "envelope.entries", rows=event.verdict.num_elephants
        ):
            entries.append(elephant_entries(event.frame, event.verdict))
        volumes = frame.rates * (SLOT_SECONDS / 8.0)
        residual = (
            float(volumes[frame.residual_row])
            if frame.residual_row is not None
            else 0.0
        )
        slot_bytes.append((float(volumes.sum()) - residual, residual))
        if keep_frames:
            frames.append(frame)
    with span_of(tracer, "envelope.json", rows=len(entries)):
        envelope = result_envelope("stream", spec.describe(), entries)
        envelope_json = json.dumps(envelope)
    residual_fraction = pipeline.series().mean_residual_fraction
    stats = aggregator.stats
    return PipelineRun(
        envelope=envelope,
        envelope_json=envelope_json,
        packets_seen=stats.packets_seen,
        packets_matched=stats.packets_matched,
        bytes_matched=stats.bytes_matched,
        slot_bytes=slot_bytes,
        residual_fraction=residual_fraction,
        kept_share=(
            sampler.packets_selected / sampler.packets_offered
            if sampler is not None and sampler.packets_offered
            else 1.0
        ),
        rejected_bytes=float(
            getattr(aggregator.backend, "admission_rejected_bytes", 0.0)
        ),
        frames=frames,
    )


def summary_round_trip(
    frames: list, tracer: Tracer, monitor: str = "perf"
) -> int:
    """``from_frame`` → ``to_bytes`` → ``from_bytes`` per sealed slot.

    Returns the wire bytes produced (``summary.wire_bytes``).
    """
    wire_bytes = 0
    for frame in frames:
        with tracer.span("summary.from_frame", rows=frame.num_flows):
            summary = SlotSummary.from_frame(frame, SLOT_SECONDS, monitor)
        wire_bytes += wire_round_trip(summary, tracer)
    return wire_bytes


def wire_round_trip(summary: SlotSummary, tracer: Tracer) -> int:
    """One summary through its wire record and back; returns its size."""
    with tracer.span("summary.to_bytes", rows=summary.num_entries):
        payload = summary.to_bytes()
    with tracer.span("summary.from_bytes", rows=summary.num_entries):
        SlotSummary.from_bytes(payload)
    return len(payload)
