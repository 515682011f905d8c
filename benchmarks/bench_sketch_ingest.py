"""Throughput gate for the array-native sketch tables.

The bounded-memory path is the configuration a line-rate monitor
actually runs, so its ingestion throughput is a first-class deliverable
next to its accuracy. This bench streams one synthetic backbone trace
(persistent elephants over a deep tail of mice — the paper's regime,
where most packets belong to flows the candidate table will never
keep) through every sketch backend — the production array table
``make_backend`` builds and the scalar reference class, built by class
— and reports packets per second.

The CI gate asserts the **array table reaches >= 3x the scalar
reference's packets/s for space-saving at K = 512**
(:data:`MIN_SPEEDUP`) — space-saving is the fastest scalar baseline,
so it is the binding ratio. The other backends' ratios ride along in
``BENCH_sketch_ingest.json`` so the perf trajectory stays
machine-readable across PRs. Byte conservation between the two is
asserted unconditionally: speed that loses traffic does not count.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.pipeline import (
    AggregatingSlotSource,
    ArrayPacketSource,
    StreamingAggregator,
    make_backend,
)
from repro.pipeline.backends import (
    CountMinAggregation,
    MisraGriesAggregation,
    SpaceSavingAggregation,
)
from repro.routing.lpm import FixedLengthResolver

#: The CI gate: array-table vs scalar-reference packets/s, space-saving.
MIN_SPEEDUP = 3.0

#: Each sketch name with its scalar reference class (the baseline).
SCALAR_CLASSES = {
    "space-saving": SpaceSavingAggregation,
    "misra-gries": MisraGriesAggregation,
    "count-min": CountMinAggregation,
}
SKETCH_NAMES = tuple(SCALAR_CLASSES)
CAPACITY = 512
PACKETS = 400_000
NUM_ELEPHANTS = 12
#: Deep mouse tail: most packets miss the candidate table, which is
#: exactly the churn regime that separates the two engines.
NUM_MICE = 20_000
NUM_SLOTS = 5
SLOT_SECONDS = 60.0
CHUNK_PACKETS = 4096
PREFIX_LENGTH = 16

REPORT_DIR = os.path.join(os.path.dirname(__file__), "reports")


def write_bench_json(payload: dict) -> None:
    os.makedirs(REPORT_DIR, exist_ok=True)
    path = os.path.join(REPORT_DIR, "BENCH_sketch_ingest.json")
    with open(path, "w") as stream:
        json.dump(payload, stream, indent=2, sort_keys=True)


@pytest.fixture(scope="module")
def trace():
    """A backbone-shaped packet trace as picklable columnar arrays."""
    rng = np.random.default_rng(20020811)
    horizon = NUM_SLOTS * SLOT_SECONDS
    flows = NUM_ELEPHANTS + NUM_MICE
    weights = np.concatenate(
        [
            np.full(NUM_ELEPHANTS, 120.0),
            rng.pareto(1.3, NUM_MICE) + 0.2,
        ]
    )
    flow = rng.choice(flows, size=PACKETS, p=weights / weights.sum())
    timestamps = np.sort(rng.uniform(0.0, horizon, PACKETS))
    destinations = (10 << 24) | (flow.astype(np.int64) << 16) | 9
    sizes = np.where(
        flow < NUM_ELEPHANTS,
        rng.integers(700, 1500, PACKETS),
        rng.integers(64, 600, PACKETS),
    ).astype(np.int64)
    return timestamps, destinations, sizes


def ingest(trace, backend):
    """One full streaming pass; returns (packets/s, bytes accounted)."""
    timestamps, destinations, sizes = trace
    aggregator = StreamingAggregator(
        FixedLengthResolver(PREFIX_LENGTH),
        slot_seconds=SLOT_SECONDS,
        backend=backend,
    )
    source = ArrayPacketSource(
        timestamps, destinations, sizes, chunk_packets=CHUNK_PACKETS
    )
    started = time.perf_counter()
    frames = list(AggregatingSlotSource(source, aggregator).slots())
    elapsed = time.perf_counter() - started
    assert len(frames) == NUM_SLOTS
    assert aggregator.stats.packets_matched == PACKETS
    accounted = sum(float(f.rates.sum()) for f in frames)
    accounted *= SLOT_SECONDS / 8.0
    assert np.isclose(accounted, aggregator.stats.bytes_matched)
    return aggregator.stats.packets_matched / elapsed, accounted


def test_sketch_ingest_gate(trace, report_writer):
    exact_pps, _ = ingest(trace, make_backend("exact"))
    throughput = {}
    speedup = {}
    for name in SKETCH_NAMES:
        scalar_pps, scalar_bytes = ingest(
            trace, SCALAR_CLASSES[name](CAPACITY)
        )
        array_pps, array_bytes = ingest(
            trace, make_backend(name, capacity=CAPACITY)
        )
        # both must account for the same traffic to the byte
        assert np.isclose(scalar_bytes, array_bytes)
        throughput[name] = {"scalar": scalar_pps, "array": array_pps}
        speedup[name] = array_pps / scalar_pps

    lines = [
        f"trace: {PACKETS} packets, {NUM_ELEPHANTS + NUM_MICE} flows, "
        f"{NUM_SLOTS} slots, K={CAPACITY}, chunk={CHUNK_PACKETS}",
        f"exact reference: {exact_pps:12.0f} packets/s",
        "backend       | scalar pkt/s | array pkt/s  | array/scalar",
    ]
    lines += [
        f"{name:13s} | {throughput[name]['scalar']:12.0f} | "
        f"{throughput[name]['array']:12.0f} | {speedup[name]:.2f}x"
        for name in SKETCH_NAMES
    ]
    lines.append(
        f"gate: space-saving array >= {MIN_SPEEDUP}x scalar (enforced)"
    )
    report_writer("bench_sketch_ingest", "\n".join(lines))
    write_bench_json(
        {
            "packets": PACKETS,
            "flows": NUM_ELEPHANTS + NUM_MICE,
            "capacity": CAPACITY,
            "chunk_packets": CHUNK_PACKETS,
            "exact_pps": round(exact_pps),
            "scalar_pps": {
                name: round(throughput[name]["scalar"])
                for name in SKETCH_NAMES
            },
            "array_pps": {
                name: round(throughput[name]["array"])
                for name in SKETCH_NAMES
            },
            "speedup": {
                name: round(speedup[name], 3) for name in SKETCH_NAMES
            },
            "min_speedup_gate": MIN_SPEEDUP,
            "gated_backend": "space-saving",
        }
    )

    # the CI gate: the engine swap must pay for itself where the
    # scalar baseline is fastest
    assert speedup["space-saving"] >= MIN_SPEEDUP
