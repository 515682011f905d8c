"""Golden end-to-end fixture: pcap → stream → classify → report.

A fully deterministic run of the whole measurement chain — synthetic
rates, packetisation, the vectorized pcap scan, streaming aggregation
(exact and sketch-bounded), online classification, and the elephant
report — is pinned to a committed JSON snapshot. Any behavioural drift
anywhere in that chain shows up as a readable diff of the snapshot
rather than a distant numeric assertion.

Regenerate after an *intentional* change with::

    PYTHONPATH=src python tests/integration/test_golden_stream.py

and review the diff like any other code change.
"""

import json
import os

import numpy as np

from repro.core.engine import EngineConfig
from repro.flows.matrix import RateMatrix
from repro.flows.records import TimeAxis
from repro.net.prefix import Prefix
from repro.pipeline import (
    AggregatingSlotSource,
    PcapPacketSource,
    StreamingAggregator,
    StreamingPipeline,
    make_backend,
)
from repro.routing.lpm import CompiledLpm
from repro.traffic.packetize import PacketizerConfig, write_pcap

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "stream_pipeline.json")

NUM_FLOWS = 8
NUM_SLOTS = 5
SLOT_SECONDS = 60.0


def _write_capture(path):
    """The pinned workload: 3 persistent elephants over 5 mice."""
    rng = np.random.default_rng(2026)
    prefixes = [Prefix.parse(f"10.{i}.0.0/16") for i in range(NUM_FLOWS)]
    rates = rng.uniform(5e3, 3e4, size=(NUM_FLOWS, NUM_SLOTS))
    rates[:3] = rng.uniform(2e5, 4e5, size=(3, NUM_SLOTS))
    rates[4, :2] = 0.0  # one late-arriving flow
    matrix = RateMatrix(prefixes, TimeAxis(0.0, SLOT_SECONDS, NUM_SLOTS),
                        rates)
    packets = write_pcap(matrix, path, PacketizerConfig(seed=42))
    return prefixes, packets


def _run(path, prefixes, backend=None):
    aggregator = StreamingAggregator(CompiledLpm(prefixes),
                                     slot_seconds=SLOT_SECONDS, start=0.0,
                                     backend=backend)
    pipeline = StreamingPipeline(
        AggregatingSlotSource(PcapPacketSource(path), aggregator),
        config=EngineConfig(),
    )
    events = list(pipeline.events())
    series = pipeline.series()
    used = aggregator.backend
    report = {
        "run": pipeline.label,
        "backend": used.name,
        "num_slots": len(events),
        "population": [str(p) for p in aggregator.prefixes],
        "elephant_counts": [e.verdict.num_elephants for e in events],
        "traffic_fraction": [round(float(f), 6)
                             for f in series.traffic_fraction],
        "final_slot_elephants": sorted(
            str(p) for p in events[-1].elephant_prefixes
        ),
        "stats": {
            "packets_seen": aggregator.stats.packets_seen,
            "packets_matched": aggregator.stats.packets_matched,
            "packets_unrouted": aggregator.stats.packets_unrouted,
            "packets_outside_axis": aggregator.stats.packets_outside_axis,
            "bytes_matched": aggregator.stats.bytes_matched,
        },
    }
    if used.residual_row is not None:
        report.update({
            "capacity": used.capacity,
            "peak_tracked": used.peak_tracked,
            "population_rows": used.num_rows,
            "residual_fraction": [
                round(float(f), 6) for f in series.residual_fraction
            ],
        })
    return report


def build_reports(tmp_dir):
    path = os.path.join(str(tmp_dir), "golden.pcap")
    prefixes, packets = _write_capture(path)
    return {
        "capture_packets": packets,
        "exact": _run(path, prefixes),
        "space_saving_c6": _run(
            path, prefixes, make_backend("space-saving", capacity=6),
        ),
    }


def test_stream_pipeline_matches_golden(tmp_path):
    reports = build_reports(tmp_path)
    with open(GOLDEN_PATH) as stream:
        golden = json.load(stream)
    assert reports == golden, (
        "end-to-end pipeline output drifted from the golden snapshot; "
        "if the change is intentional, regenerate with "
        "`PYTHONPATH=src python tests/integration/test_golden_stream.py` "
        "and review the diff"
    )


def test_array_engine_elephants_match_scalar_engine(tmp_path):
    """The array sketch engine must report the same elephants per slot
    as the scalar reference engine on the golden capture — the batch
    kernels may admit marginal mice differently, but classification
    output is pinned engine-independent."""
    # not a module import: the regeneration entry point below runs
    # this file as a script, without tests/ on the path
    from oracles import scalar_backend

    path = os.path.join(str(tmp_path), "golden.pcap")
    prefixes, _ = _write_capture(path)
    for name in ("space-saving", "misra-gries"):
        runs = {
            "array": _run(path, prefixes, make_backend(name, capacity=6)),
            "scalar": _run(path, prefixes, scalar_backend(name, 6)),
        }
        assert runs["array"]["elephant_counts"] == \
            runs["scalar"]["elephant_counts"], name
        assert runs["array"]["final_slot_elephants"] == \
            runs["scalar"]["final_slot_elephants"], name
        assert runs["array"]["stats"] == runs["scalar"]["stats"], name


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        fresh = build_reports(tmp)
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as stream:
        json.dump(fresh, stream, indent=2, sort_keys=True)
        stream.write("\n")
    print(f"wrote {GOLDEN_PATH}")
