"""Pipeline-level tests: streaming classification equals batch.

The load-bearing guarantees: (1) a matrix replayed through the
streaming pipeline reproduces the batch engine's verdicts slot by slot;
(2) that still holds when flows arrive *dynamically* — the population
grows mid-stream and the classifier is grown with it; (3) the full
pcap → StreamingAggregator → OnlineClassifier chain matches the batch
aggregate-then-classify chain. Every event is held to the batch
result's column by ``oracles.assert_stream_matches_batch``.
"""

import numpy as np
import pytest
from oracles import assert_stream_matches_batch

from repro.core.engine import (
    ClassificationEngine,
    EngineConfig,
    Feature,
    Scheme,
)
from repro.errors import ReproError
from repro.flows.aggregate import aggregate_pcap
from repro.flows.matrix import RateMatrix
from repro.flows.records import TimeAxis
from repro.net.prefix import Prefix
from repro.pipeline import (
    AggregatingSlotSource,
    MatrixSlotSource,
    PcapPacketSource,
    StreamingAggregator,
    StreamingPipeline,
)
from repro.pipeline.sampling import EVIDENCE_BYTES
from repro.pipeline.sources import SlotFrame
from repro.routing.aspath import AsPath, AsTier, AutonomousSystem
from repro.routing.rib import Route, RoutingTable
from repro.traffic.packetize import PacketizerConfig, write_pcap


def staggered_matrix(num_flows=36, num_slots=40, seed=17):
    """A matrix whose flows appear at staggered slots (dynamic arrival)."""
    rng = np.random.default_rng(seed)
    prefixes = [Prefix.parse(f"10.{i}.0.0/16") for i in range(num_flows)]
    rates = rng.uniform(1e4, 2e6, size=(num_flows, num_slots))
    for i in range(num_flows):
        rates[i, : (i * num_slots) // (2 * num_flows)] = 0.0
    rates[rng.random(rates.shape) < 0.2] = 0.0  # idle flow-slots
    return RateMatrix(prefixes, TimeAxis(0.0, 300.0, num_slots), rates)


class DynamicSource:
    """Presents only the flows of ``matrix`` that have appeared so far."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.slot_seconds = matrix.axis.slot_seconds

    def slots(self):
        matrix = self.matrix
        for slot in range(matrix.num_slots):
            seen = (matrix.rates[:, : slot + 1] > 0).any(axis=1)
            active = np.flatnonzero(seen)
            population = int(active.max()) + 1 if active.size else 0
            yield SlotFrame(
                slot=slot,
                start=matrix.axis.slot_start(slot),
                rates=matrix.rates[:population, slot],
                population=matrix.prefixes[:population],
            )


class TestMatrixStreamingEquivalence:
    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("feature", list(Feature))
    def test_stream_equals_run(self, small_matrix, scheme, feature):
        batch = ClassificationEngine(small_matrix).run(scheme, feature)
        pipeline = StreamingPipeline(
            MatrixSlotSource(small_matrix), scheme=scheme, feature=feature
        )
        assert_stream_matches_batch(pipeline, batch)

    def test_custom_config_respected(self, small_matrix):
        config = EngineConfig(alpha=0.7, beta=0.6, window=4)
        batch = ClassificationEngine(small_matrix, config).run(
            Scheme.CONSTANT_LOAD, Feature.LATENT_HEAT
        )
        pipeline = StreamingPipeline(
            MatrixSlotSource(small_matrix), config=config
        )
        assert_stream_matches_batch(pipeline, batch)
        assert batch.thresholds.alpha == 0.7

    def test_series_matches_batch_series(self, small_matrix):
        from repro.analysis.elephants import ElephantSeries

        engine = ClassificationEngine(small_matrix)
        batch = ElephantSeries.from_result(
            engine.run(Scheme.CONSTANT_LOAD, Feature.LATENT_HEAT)
        )
        pipeline = StreamingPipeline(MatrixSlotSource(small_matrix))
        for _ in pipeline.events():
            pass
        streamed = pipeline.series()
        assert np.array_equal(batch.counts, streamed.counts)
        assert np.allclose(batch.traffic_fraction, streamed.traffic_fraction)
        assert np.allclose(batch.hours, streamed.hours)


class TestDynamicArrivalEquivalence:
    """Staggered flow arrival: every streamed verdict == batch verdict.

    The stream only ever presents the flows discovered so far; the
    classifier is grown mid-stream. The batch engine sees the full
    matrix (zero rows before each flow's arrival). Their verdicts must
    agree flow for flow, slot for slot.
    """

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("feature", list(Feature))
    def test_staggered_arrival_masks_equal(self, scheme, feature):
        matrix = staggered_matrix()
        batch = ClassificationEngine(matrix).run(scheme, feature)
        pipeline = StreamingPipeline(
            DynamicSource(matrix), scheme=scheme, feature=feature
        )
        assert_stream_matches_batch(pipeline, batch)
        # the stream grew its population mid-run
        assert pipeline.classifier.num_flows == matrix.num_flows

    def test_chunked_property_sweep(self):
        """Several seeds, default scheme, exact equality."""
        for seed in (1, 2, 3):
            matrix = staggered_matrix(num_flows=24, num_slots=30, seed=seed)
            batch = ClassificationEngine(matrix).run(
                Scheme.CONSTANT_LOAD, Feature.LATENT_HEAT
            )
            pipeline = StreamingPipeline(DynamicSource(matrix))
            assert_stream_matches_batch(pipeline, batch)


class TestPcapPipelineEquivalence:
    @pytest.fixture(scope="class")
    def capture(self, tmp_path_factory):
        rng = np.random.default_rng(23)
        prefixes = [Prefix.parse(f"10.{i}.0.0/16") for i in range(10)]
        routes = [
            Route(
                prefix,
                AsPath((65000 + i,)),
                AutonomousSystem(65000 + i, AsTier.STUB),
            )
            for i, prefix in enumerate(prefixes)
        ]
        table = RoutingTable(routes)
        axis = TimeAxis(0.0, 60.0, 5)
        rates = rng.uniform(1e5, 6e5, size=(10, 5))
        for i in range(10):
            rates[i, : i // 3] = 0.0  # staggered arrival in the capture
        matrix = RateMatrix(prefixes, axis, rates)
        path = str(tmp_path_factory.mktemp("stream") / "link.pcap")
        write_pcap(matrix, path, PacketizerConfig(seed=4))
        return path, table, axis

    def test_stream_equals_batch_end_to_end(self, capture):
        path, table, axis = capture
        recovered, _ = aggregate_pcap(path, table, axis)
        batch = ClassificationEngine(recovered).run(
            Scheme.CONSTANT_LOAD, Feature.LATENT_HEAT
        )
        aggregator = StreamingAggregator(table, slot_seconds=60.0, start=0.0)
        pipeline = StreamingPipeline(
            AggregatingSlotSource(
                PcapPacketSource(path, chunk_packets=4096), aggregator
            )
        )
        assert_stream_matches_batch(pipeline, batch)
        assert pipeline.series().counts.size == batch.matrix.num_slots

    def test_memory_bounded_state(self, capture):
        """The classifier's state is O(flows x window), not O(slots)."""
        path, table, _ = capture
        aggregator = StreamingAggregator(table, slot_seconds=60.0)
        source = AggregatingSlotSource(PcapPacketSource(path), aggregator)
        pipeline = StreamingPipeline(source)
        for _ in pipeline.events():
            pass
        classifier = pipeline.classifier
        assert classifier._deviation_ring.shape == (
            classifier.num_flows,
            classifier.window,
        )


class TestFirstFrame:
    def test_an_empty_first_frame_is_one_repro_error(self):
        """A source whose first slot names no flow: the stream fails
        with one ReproError before it classifies anything, as the batch
        engine fails on that matrix."""
        matrix = staggered_matrix()
        matrix.rates[:, 0] = 0.0
        pipeline = StreamingPipeline(DynamicSource(matrix))
        with pytest.raises(ReproError):
            list(pipeline.events())
        assert pipeline.slots_seen == 0
        with pytest.raises(ReproError):
            ClassificationEngine(matrix).run(
                Scheme.CONSTANT_LOAD, Feature.LATENT_HEAT
            )


class PushedFrames:
    """A slot source that only has a width: frames are pushed."""

    slot_seconds = 60.0


class TestVarianceGuard:
    """In a sampled frame, a row needs two 1500 B packets' worth of
    *observed* bytes (``EVIDENCE_BYTES``) before it can be an elephant;
    an unsampled frame is never guarded."""

    PREFIXES = [Prefix.parse(f"10.{i}.0.0/16") for i in range(4)]

    def verdicts(self, observed_bytes, sample_rate, slots=3):
        # row 0 alone carries the slot's load: an elephant unless guarded
        rate = observed_bytes * (8.0 * sample_rate) / 60.0
        rates = np.array([rate, 0.01 * rate, 0.01 * rate, 0.0])
        pipeline = StreamingPipeline(PushedFrames())
        return [
            pipeline.observe(
                SlotFrame(
                    slot=slot,
                    start=60.0 * slot,
                    rates=rates,
                    population=self.PREFIXES,
                    sample_rate=sample_rate,
                )
            ).verdict
            for slot in range(slots)
        ]

    def test_the_floor_is_two_full_size_packets(self):
        assert EVIDENCE_BYTES == 2 * 1500.0

    @pytest.mark.parametrize("sample_rate", [2.0, 10.0, 50.0])
    def test_a_sampled_row_under_the_floor_is_never_an_elephant(
        self, sample_rate
    ):
        for verdict in self.verdicts(EVIDENCE_BYTES - 1.0, sample_rate):
            assert verdict.num_elephants == 0

    @pytest.mark.parametrize("sample_rate", [2.0, 10.0, 50.0])
    def test_a_sampled_row_at_the_floor_can_be_an_elephant(
        self, sample_rate
    ):
        for verdict in self.verdicts(EVIDENCE_BYTES, sample_rate):
            assert verdict.elephants().tolist() == [0]

    def test_an_unsampled_row_under_the_floor_is_not_guarded(self):
        for verdict in self.verdicts(EVIDENCE_BYTES - 1.0, 1.0):
            assert verdict.elephants().tolist() == [0]
