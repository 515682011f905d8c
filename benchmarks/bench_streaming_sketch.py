"""Accuracy-vs-memory trajectory of the sketch aggregation backends.

The question a deployment has to answer before swapping the exact flow
table for a sketch: *how small can the candidate table get before the
paper's elephants disappear?* This bench packetizes a synthetic link
with a known elephant population (persistent heavy prefixes over a sea
of mice), streams the capture through every backend, and reports
elephant recall/precision, churn delta, and residual coverage per
capacity.

Acceptance bar: at ``K = 4 x`` the true (exact-run peak) elephant
count, Space-Saving must recover >= 90% of the exact run's
flow-slot elephant verdicts.
"""

import time

import numpy as np
import pytest

from repro.flows.matrix import RateMatrix
from repro.flows.records import TimeAxis
from repro.net.prefix import Prefix
from repro.pipeline import PcapPacketSource, make_backend
from repro.routing.lpm import CompiledLpm
from repro.sketches.streaming_eval import (
    COMPARISON_COLUMNS,
    evaluate_backends,
    run_backend,
    score_against,
)
from repro.traffic.packetize import PacketizerConfig, write_pcap

#: The acceptance bar at K = CAPACITY_FACTOR x true elephant count.
MIN_RECALL = 0.9
CAPACITY_FACTOR = 4

NUM_ELEPHANTS = 10
NUM_MICE = 150
NUM_SLOTS = 6
SLOT_SECONDS = 60.0


@pytest.fixture(scope="module")
def capture(tmp_path_factory):
    """A capture with persistent elephants over a long tail of mice.

    Rates are sized so the realisation stays under ~100k packets — the
    per-packet packetizer, not the (vectorized) pipeline under test, is
    the expensive stage here.
    """
    rng = np.random.default_rng(1234)
    prefixes = [Prefix.parse(f"10.{i}.0.0/16") for i in range(NUM_ELEPHANTS)]
    prefixes += [
        Prefix.parse(f"172.{16 + i // 200}.{i % 200}.0/24")
        for i in range(NUM_MICE)
    ]
    axis = TimeAxis(0.0, SLOT_SECONDS, NUM_SLOTS)
    rates = np.zeros((len(prefixes), NUM_SLOTS))
    rates[:NUM_ELEPHANTS] = rng.uniform(
        4e4, 1e5, size=(NUM_ELEPHANTS, NUM_SLOTS)
    )
    rates[NUM_ELEPHANTS:] = rng.uniform(5e2, 3e3, size=(NUM_MICE, NUM_SLOTS))
    rates[NUM_ELEPHANTS:][rng.random((NUM_MICE, NUM_SLOTS)) < 0.3] = 0.0
    matrix = RateMatrix(prefixes, axis, rates)
    path = str(tmp_path_factory.mktemp("sketch") / "elephants.pcap")
    packets = write_pcap(matrix, path, PacketizerConfig(seed=7))
    return path, list(prefixes), packets


def test_sketch_backend_accuracy(capture, report_writer):
    path, prefixes, packets = capture
    make_source = lambda: PcapPacketSource(path)  # noqa: E731
    make_resolver = lambda: CompiledLpm(prefixes)  # noqa: E731

    reference = run_backend(make_source, make_resolver, SLOT_SECONDS)
    true_elephants = reference.peak_elephants
    capacity = CAPACITY_FACTOR * true_elephants

    comparisons = []
    throughput = []
    for name in ("space-saving", "misra-gries"):
        backend = make_backend(name, capacity=capacity)
        started = time.perf_counter()
        run = run_backend(
            make_source, make_resolver, SLOT_SECONDS, backend=backend
        )
        elapsed = time.perf_counter() - started
        comparisons.append(score_against(reference, run))
        throughput.append(packets / elapsed)

    lines = [
        f"capture: {packets} packets, {len(prefixes)} prefixes, "
        f"{NUM_SLOTS} slots",
        f"exact run: peak {true_elephants} elephants/slot, "
        f"mean {reference.mean_elephants:.1f}, "
        f"churn {reference.churn():.3f}",
        f"capacity K = {CAPACITY_FACTOR} x {true_elephants} = {capacity}",
        "",
        " | ".join(COMPARISON_COLUMNS + ["pkt/s"]),
    ]
    for comparison, pps in zip(comparisons, throughput):
        cells = [str(cell) for cell in comparison.as_row()]
        lines.append(" | ".join(cells + [f"{pps:.0f}"]))
        assert comparison.run.peak_tracked <= capacity
    report_writer("bench_streaming_sketch", "\n".join(lines))

    by_name = {c.run.backend: c for c in comparisons}
    assert by_name["space-saving"].recall >= MIN_RECALL
    assert by_name["misra-gries"].recall >= MIN_RECALL


def test_capacity_sweep_space_saving(capture, report_writer):
    """Recall trajectory as the candidate table shrinks."""
    path, prefixes, _ = capture
    make_source = lambda: PcapPacketSource(path)  # noqa: E731
    make_resolver = lambda: CompiledLpm(prefixes)  # noqa: E731

    reference, comparisons = evaluate_backends(
        make_source,
        make_resolver,
        SLOT_SECONDS,
        [make_backend("space-saving", capacity=k) for k in (8, 16, 32, 64)],
    )
    lines = [
        f"exact: mean {reference.mean_elephants:.1f} elephants/slot",
        " | ".join(COMPARISON_COLUMNS),
    ]
    for comparison in comparisons:
        lines.append(" | ".join(str(cell) for cell in comparison.as_row()))
    report_writer("bench_streaming_sketch_sweep", "\n".join(lines))
    recalls = [c.recall for c in comparisons]
    # more memory never makes the sketch meaningfully worse
    assert recalls[-1] >= recalls[0] - 0.05
    assert recalls[-1] >= MIN_RECALL
