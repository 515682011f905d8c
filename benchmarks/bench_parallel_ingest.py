"""Parallel-scaling gate for true multi-process ingestion.

The worker-per-shard runner only earns its process overhead if adding
workers buys throughput. This bench ingests one synthetic backbone
trace (persistent elephants over a long tail of mice, the paper's
regime) through ``parallel_ingest`` at 1, 2 and 4 workers with a
Space-Saving backend — the bounded-memory configuration a line-rate
monitor actually runs — and through the in-process sharded aggregator
as the single-process baseline.

The transport under test is the zero-copy shared-memory ring
(:mod:`repro.distributed.shm_ring`): the reader writes dealt column
sub-batches straight into per-worker ``/dev/shm`` slots and only
``(slot, final)`` descriptors cross a queue, replacing PR 4's
pickled-``Queue`` hop whose serialization cost made the fleet *lose*
throughput as workers were added (0.66x at 2 workers, 0.44x at 4 on
the recorded PR 4 numbers).

The CI gate asserts **>= 1.5x ingestion throughput at 4 workers vs 1
worker** (:data:`MIN_SPEEDUP_AT_4`). The gate needs real parallelism,
so it is enforced only when the machine has at least 4 CPUs (the CI
runners do); on smaller boxes the numbers are still measured, written
to ``BENCH_parallel_ingest.json`` and reported, but the assertion is
skipped — a 1-core container cannot exhibit a speedup that the
hardware does not offer.

Byte conservation across worker counts is asserted unconditionally:
however the fleet scales, the merged summaries must account for every
matched byte.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from repro.distributed import DEFAULT_RING_SLOTS, parallel_ingest
from repro.pipeline import (
    AggregatingSlotSource,
    ArrayPacketSource,
    PipelineSpec,
    StreamingAggregator,
    make_backend,
)
from repro.routing.lpm import FixedLengthResolver

#: The CI gate: ingestion throughput at 4 workers vs 1 worker.
MIN_SPEEDUP_AT_4 = 1.5
WORKER_COUNTS = (1, 2, 4)

NUM_ELEPHANTS = 12
NUM_MICE = 6000
NUM_SLOTS = 5
SLOT_SECONDS = 60.0
#: Sized so the worker stage dominates process startup and the serial
#: reader stage (~6:1 worker:reader on a dev box) — small enough for a
#: CI runner, large enough that a 4-worker fleet can actually win.
PACKETS = 1_200_000
CAPACITY = 512
CHUNK_PACKETS = 4096
PREFIX_LENGTH = 16

REPORT_DIR = os.path.join(os.path.dirname(__file__), "reports")


def write_bench_json(payload: dict) -> None:
    os.makedirs(REPORT_DIR, exist_ok=True)
    path = os.path.join(REPORT_DIR, "BENCH_parallel_ingest.json")
    with open(path, "w") as stream:
        json.dump(payload, stream, indent=2, sort_keys=True)


@pytest.fixture(scope="module")
def trace():
    """A backbone-shaped packet trace as picklable columnar arrays."""
    rng = np.random.default_rng(20020811)
    horizon = NUM_SLOTS * SLOT_SECONDS
    flows = NUM_ELEPHANTS + NUM_MICE
    # elephants send persistently; mice burst a handful of packets
    weights = np.concatenate([
        np.full(NUM_ELEPHANTS, 120.0),
        rng.pareto(1.3, NUM_MICE) + 0.2,
    ])
    flow = rng.choice(flows, size=PACKETS, p=weights / weights.sum())
    timestamps = np.sort(rng.uniform(0.0, horizon, PACKETS))
    destinations = (10 << 24) | (flow.astype(np.int64) << 16) | 9
    sizes = np.where(
        flow < NUM_ELEPHANTS,
        rng.integers(700, 1500, PACKETS),
        rng.integers(64, 600, PACKETS),
    ).astype(np.int64)
    return timestamps, destinations, sizes


def make_source(trace):
    timestamps, destinations, sizes = trace
    return ArrayPacketSource(timestamps, destinations, sizes,
                             chunk_packets=CHUNK_PACKETS)


def test_parallel_scaling_gate(trace, report_writer):
    """1→N worker throughput, the 4-vs-1 gate, and byte conservation."""
    # single-process baseline: same hash split, one process
    aggregator = StreamingAggregator(
        FixedLengthResolver(PREFIX_LENGTH), slot_seconds=SLOT_SECONDS,
        backend=make_backend("space-saving", capacity=CAPACITY,
                             shards=max(WORKER_COUNTS)),
    )
    started = time.perf_counter()
    frames = list(AggregatingSlotSource(make_source(trace),
                                        aggregator).slots())
    baseline_elapsed = time.perf_counter() - started
    baseline_pps = aggregator.stats.packets_matched / baseline_elapsed
    assert len(frames) == NUM_SLOTS

    throughput = {}
    totals = {}
    for workers in WORKER_COUNTS:
        started = time.perf_counter()
        result = parallel_ingest(
            make_source(trace), FixedLengthResolver(PREFIX_LENGTH),
            slot_seconds=SLOT_SECONDS,
            spec=PipelineSpec(workers=workers, backend="space-saving",
                              capacity=CAPACITY),
        )
        elapsed = time.perf_counter() - started
        throughput[workers] = result.stats.packets_matched / elapsed
        totals[workers] = sum(summary.total_bytes
                              for run in result.runs for summary in run)
        assert result.stats.packets_matched == PACKETS

    # every byte conserved at every fleet size, parallel or not
    matched = float(aggregator.stats.bytes_matched)
    for workers, streamed in totals.items():
        assert math.isclose(streamed, matched, rel_tol=1e-9), \
            f"{workers} workers leaked bytes: {streamed} vs {matched}"

    speedup = {workers: throughput[workers] / throughput[1]
               for workers in WORKER_COUNTS}
    cpus = os.cpu_count() or 1
    gated = cpus >= max(WORKER_COUNTS)

    lines = [
        f"trace: {PACKETS} packets, {NUM_ELEPHANTS + NUM_MICE} flows, "
        f"{NUM_SLOTS} slots, space-saving K={CAPACITY}",
        f"single-process baseline: {baseline_pps:12.0f} packets/s",
        "workers | packets/s    | speedup vs 1 worker",
    ]
    lines += [
        f"{workers:7d} | {throughput[workers]:12.0f} | "
        f"{speedup[workers]:.2f}x"
        for workers in WORKER_COUNTS
    ]
    lines.append(
        f"gate: >= {MIN_SPEEDUP_AT_4}x at 4 workers "
        f"({'enforced' if gated else f'skipped, only {cpus} cpu(s)'})"
    )
    report_writer("bench_parallel_ingest", "\n".join(lines))
    write_bench_json({
        "transport": "shm-ring",
        "ring_slots": DEFAULT_RING_SLOTS,
        "packets": PACKETS,
        "capacity": CAPACITY,
        "single_process_pps": round(baseline_pps),
        "parallel_pps": {str(workers): round(throughput[workers])
                         for workers in WORKER_COUNTS},
        "speedup_vs_1_worker": {str(workers): round(speedup[workers], 3)
                                for workers in WORKER_COUNTS},
        "min_speedup_gate": MIN_SPEEDUP_AT_4,
        "gate_enforced": gated,
        "cpu_count": cpus,
    })

    if not gated:
        pytest.skip(
            f"scaling gate needs >= {max(WORKER_COUNTS)} CPUs; "
            f"this machine has {cpus} (numbers recorded above)"
        )
    # the CI gate: 4 workers must beat 1 worker by the floor factor
    assert speedup[max(WORKER_COUNTS)] >= MIN_SPEEDUP_AT_4
