"""A default route is a flow like any other, on every path.

A RIB holding 0.0.0.0/0 keys the traffic no more specific route
catches to that prefix. One process, its ``shards=2`` twin, a
two-worker fleet and a summary merge through the collector must name
the same elephants slot by slot — the default route among them — and
a sketch with room for every flow must name what the exact table
names. The residual row reads as 0.0.0.0/0 too, but it is only a
label: no path folds the real default route into it.
"""

import numpy as np

from repro.distributed import Collector, SlotSummary, parallel_ingest
from repro.distributed.envelope import elephant_entries
from repro.net.prefix import Prefix
from repro.pipeline import (
    AggregatingSlotSource,
    ArrayPacketSource,
    PipelineSpec,
    StreamingAggregator,
    StreamingPipeline,
    make_backend,
)
from repro.routing.lpm import CompiledLpm

SLOT_SECONDS = 10.0
ROUTES = [Prefix((10 << 24) | (row << 8), 24) for row in range(24)]
RIB = [Prefix(0, 0), *ROUTES]


def packet_columns():
    """Six slots; about 60 % of the packets match only 0.0.0.0/0."""
    rng = np.random.default_rng(31)
    count = 6000
    stamps = np.sort(rng.uniform(0.0, 6 * SLOT_SECONDS, count))
    flows = (rng.zipf(1.5, count) - 1) % len(ROUTES)
    specific = (10 << 24) | (flows << 8) | 1
    elsewhere = rng.integers(11 << 24, 200 << 24, count)
    destinations = np.where(rng.random(count) < 0.4, specific, elsewhere)
    return stamps, destinations, rng.integers(64, 1501, count)


def source(columns):
    return ArrayPacketSource(*columns, chunk_packets=700)


def entries(events):
    return [elephant_entries(event.frame, event.verdict) for event in events]


def in_process(columns, backend=None):
    """Per-slot elephant entries of one process, and its frames."""
    aggregator = StreamingAggregator(
        CompiledLpm(RIB), slot_seconds=SLOT_SECONDS, backend=backend
    )
    pipeline = StreamingPipeline(
        AggregatingSlotSource(source(columns), aggregator)
    )
    events = list(pipeline.events())
    return entries(events), [event.frame for event in events]


def names(slots):
    return [[entry["prefix"] for entry in slot] for slot in slots]


def test_every_path_names_the_default_route_like_repro_stream():
    columns = packet_columns()
    plain, frames = in_process(columns)
    assert len(plain) == 6
    assert all("0.0.0.0/0" in slot for slot in names(plain))

    sharded, _ = in_process(columns, make_backend("exact", shards=2))
    fleet = parallel_ingest(
        source(columns),
        CompiledLpm(RIB),
        slot_seconds=SLOT_SECONDS,
        spec=PipelineSpec(workers=2),
    )
    run = [SlotSummary.from_frame(frame, SLOT_SECONDS) for frame in frames]
    merged = Collector([run])
    assert sharded == plain
    assert entries(fleet.collector().events()) == plain
    assert entries(merged.events()) == plain
    assert merged.series().mean_residual_fraction == 0.0

    sketch = make_backend("space-saving", capacity=2 * len(RIB))
    sketched, _ = in_process(columns, sketch)
    assert names(sketched) == names(plain)
    assert list(sketch.prefixes).count(Prefix(0, 0)) == 2
