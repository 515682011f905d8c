"""Substrate micro-benchmarks: the pieces the pipeline is built from.

These are genuine pytest-benchmark timings (many rounds), unlike the
figure benches which time a one-shot analysis: the RIB's scalar longest
prefix match and synthetic build, pcap encode/decode, the aest
estimator, and a full classification pass.
"""

import io

import numpy as np
import pytest

from repro.core.latent_heat import LatentHeatClassifier
from repro.core.thresholds import ConstantLoadThreshold
from repro.net import ipv4
from repro.pcap.packet import build_frame, build_udp_packet, summarize_record
from repro.pcap.pcapfile import CaptureRecord, PcapReader, PcapWriter
from repro.routing.ribgen import RibGeneratorConfig, generate_rib
from repro.stats.aest import aest


@pytest.fixture(scope="module")
def rib():
    return generate_rib(RibGeneratorConfig(num_routes=5000, seed=17))


@pytest.fixture(scope="module")
def addresses(rig=None):
    rng = np.random.default_rng(3)
    return [int(a) for a in rng.integers(1 << 24, 224 << 24, size=10_000)]


def test_rib_resolve_throughput(benchmark, rib, addresses):
    def lookup_all():
        hits = 0
        for address in addresses:
            if rib.resolve(address) is not None:
                hits += 1
        return hits

    hits = benchmark(lookup_all)
    assert hits > 0


def test_rib_build(benchmark):
    config = RibGeneratorConfig(num_routes=2000, seed=23)
    table = benchmark(generate_rib, config)
    assert len(table) == 2000


def test_pcap_write_read(benchmark):
    packet = build_udp_packet(
        ipv4.parse_ipv4("10.0.0.1"), ipv4.parse_ipv4("192.0.2.5"),
        4000, 80, b"x" * 512,
    )
    frame = build_frame(packet)
    records = [CaptureRecord(timestamp=float(i) * 1e-3, data=frame)
               for i in range(2000)]

    def roundtrip():
        buffer = io.BytesIO()
        with_writer = PcapWriter(buffer)
        with_writer.write_all(records)
        buffer.seek(0)
        reader = PcapReader(buffer)
        return sum(1 for _ in reader)

    count = benchmark(roundtrip)
    assert count == 2000


def test_packet_summarise(benchmark):
    packet = build_udp_packet(
        ipv4.parse_ipv4("10.0.0.1"), ipv4.parse_ipv4("192.0.2.5"),
        4000, 80, b"y" * 256,
    )
    record = CaptureRecord(timestamp=1.0, data=build_frame(packet))

    summary = benchmark(summarize_record, record)
    assert summary.destination == ipv4.parse_ipv4("192.0.2.5")


def test_aest_runtime(benchmark):
    rng = np.random.default_rng(11)
    samples = (rng.pareto(1.1, 5000) + 1.0) * 1e4

    result = benchmark(aest, samples)
    assert result.is_heavy


def test_classification_pass(benchmark, paper_run):
    matrix = paper_run.workloads["east-coast"].matrix
    classifier = LatentHeatClassifier(ConstantLoadThreshold(0.8))

    result = benchmark.pedantic(classifier.classify, args=(matrix,),
                                rounds=3, iterations=1)
    assert result.elephants_per_slot().sum() > 0
