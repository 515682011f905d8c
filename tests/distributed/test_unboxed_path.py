"""A prefix is two integer columns until somebody reads a row.

Between the resolver and the envelope nothing builds a ``Prefix``:
backend populations, slot frames, summaries, their wire and file
forms, the merge, the collector's row map and the checkpoint all pass
columns. This test counts ``Prefix`` constructions (every one runs
``__post_init__``) over that whole path and expects none — including
``elephant_entries``, which formats the rows it prints straight from
the two integers.
"""

import numpy as np
import pytest

from repro.distributed import (
    CheckpointStore,
    MergedSlotSource,
    SlotSummary,
    StridedPacketSource,
    elephant_entries,
    load_summaries,
    merge_summaries,
    save_summaries,
)
from repro.net.prefix import Prefix
from repro.pipeline import (
    AggregatingSlotSource,
    StreamingAggregator,
    StreamingPipeline,
    make_backend,
)
from repro.routing.lpm import FixedLengthResolver

SLOT_SECONDS = 5.0
SLOTS = 20


@pytest.fixture
def constructions(monkeypatch):
    """A list that grows by one per ``Prefix`` built while it is live."""
    built = []
    check = Prefix.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(Prefix, "__post_init__", counting)
    return built


@pytest.mark.parametrize(
    "backend",
    [
        {"name": "exact"},
        {"name": "exact", "shards": 3},
        {"name": "space-saving", "capacity": 24, "shards": 2},
        {"name": "misra-gries", "capacity": 16, "admission": "bloom"},
    ],
    ids=lambda spec: "-".join(str(value) for value in spec.values()),
)
def test_no_prefix_is_built_between_resolver_and_envelope(
    backend, array_source, constructions, tmp_path
):
    rng = np.random.default_rng(3)
    count = 30_000
    stamps = np.sort(rng.uniform(0, SLOTS * SLOT_SECONDS, count))
    flows = np.minimum(rng.zipf(1.3, count), 400)
    dests = (10 << 24) + flows * 256 + 9
    sizes = rng.integers(64, 1500, count)

    runs = []
    for offset in range(2):
        packets = array_source(stamps, dests, sizes, chunk=700)
        source = StridedPacketSource(packets, 2, offset)
        aggregator = StreamingAggregator(
            FixedLengthResolver(24),
            slot_seconds=SLOT_SECONDS,
            start=0.0,
            backend=make_backend(**backend),
        )
        frames = AggregatingSlotSource(source, aggregator).slots()
        run = [SlotSummary.from_frame(frame, SLOT_SECONDS) for frame in frames]
        assert len(run) == SLOTS
        # ...over the wire, and through a summary file
        run = [SlotSummary.from_bytes(summary.to_bytes()) for summary in run]
        path = str(tmp_path / f"run-{offset}.npz")
        save_summaries(path, run)
        runs.append(load_summaries(path))

    merged = [
        merge_summaries(pair, k=32, slot=slot).truncated(30)
        for slot, pair in enumerate(zip(*runs))
    ]
    with CheckpointStore(tmp_path / "state") as store:
        for summary in merged:
            store.append("link0", summary)
    with CheckpointStore(tmp_path / "state") as store:
        merged = store.sealed["link0"]

    source = MergedSlotSource([], slot_seconds=SLOT_SECONDS)
    pipeline = StreamingPipeline(source)
    entries = []
    for summary in merged:
        event = pipeline.observe(source.frame_of(summary))
        entries.append(elephant_entries(event.frame, event.verdict))
    assert sum(map(len, entries)) > SLOTS  # elephants were found and printed
    assert constructions == []

    # the counter counts: reading one row builds exactly that prefix
    name = entries[-1][0]["prefix"]
    row = source.prefixes.texts().index(name)
    assert str(source.prefixes[row]) == name
    assert len(constructions) == 1
