"""Pipeline-level tests: streaming classification equals batch.

The load-bearing guarantees: (1) a matrix replayed through the
streaming path reproduces the batch engine's result exactly; (2) that
still holds when flows arrive *dynamically* — the population grows
mid-stream and the classifier is grown with it; (3) the full
pcap → StreamingAggregator → OnlineClassifier chain matches the batch
aggregate-then-classify chain.
"""

import numpy as np
import pytest

from repro.core.engine import (
    ClassificationEngine,
    EngineConfig,
    Feature,
    Scheme,
)
from repro.flows.aggregate import aggregate_pcap
from repro.flows.matrix import RateMatrix
from repro.flows.records import TimeAxis
from repro.net.prefix import Prefix
from repro.pipeline import (
    AggregatingSlotSource,
    MatrixSlotSource,
    PcapPacketSource,
    PipelineSpec,
    StreamingAggregator,
    StreamingPipeline,
    run_stream,
)
from repro.routing.aspath import AsPath, AsTier, AutonomousSystem
from repro.routing.rib import Route, RoutingTable
from repro.traffic.packetize import PacketizerConfig, write_pcap


def staggered_matrix(num_flows=36, num_slots=40, seed=17):
    """A matrix whose flows appear at staggered slots (dynamic arrival)."""
    rng = np.random.default_rng(seed)
    prefixes = [Prefix.parse(f"10.{i}.0.0/16") for i in range(num_flows)]
    rates = rng.uniform(1e4, 2e6, size=(num_flows, num_slots))
    for i in range(num_flows):
        rates[i, :(i * num_slots) // (2 * num_flows)] = 0.0
    rates[rng.random(rates.shape) < 0.2] = 0.0  # idle flow-slots
    return RateMatrix(prefixes, TimeAxis(0.0, 300.0, num_slots), rates)


class TestMatrixStreamingEquivalence:
    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("feature", list(Feature))
    def test_run_streaming_equals_run(self, small_matrix, scheme, feature):
        engine = ClassificationEngine(small_matrix)
        batch = engine.run(scheme, feature)
        streamed = engine.run_streaming(scheme, feature)
        assert np.array_equal(batch.elephant_mask, streamed.elephant_mask)
        assert np.allclose(batch.thresholds.raw, streamed.thresholds.raw)
        assert np.allclose(batch.thresholds.smoothed,
                           streamed.thresholds.smoothed)
        assert batch.label == streamed.label
        assert batch.thresholds.fallback_slots == \
            streamed.thresholds.fallback_slots

    def test_custom_config_respected(self, small_matrix):
        engine = ClassificationEngine(
            small_matrix, EngineConfig(alpha=0.7, beta=0.6, window=4),
        )
        batch = engine.run(Scheme.CONSTANT_LOAD, Feature.LATENT_HEAT)
        streamed = engine.run_streaming(Scheme.CONSTANT_LOAD,
                                        Feature.LATENT_HEAT)
        assert np.array_equal(batch.elephant_mask, streamed.elephant_mask)
        assert streamed.thresholds.alpha == 0.7

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
        assert np.allclose(batch.traffic_fraction,
                           streamed.traffic_fraction)
        assert np.allclose(batch.hours, streamed.hours)


class TestMatrixParallelReplay:
    """`run_streaming(spec=PipelineSpec(workers=N))` replays the matrix
    through real worker processes; the verdicts must agree with batch
    per slot."""

    def test_workers_mode_matches_batch_elephants(self):
        matrix = _separated_matrix()
        engine = ClassificationEngine(matrix)
        batch = engine.run(Scheme.CONSTANT_LOAD, Feature.LATENT_HEAT)
        parallel = engine.run_streaming(
            Scheme.CONSTANT_LOAD, Feature.LATENT_HEAT,
            spec=PipelineSpec(workers=2),
        )
        assert parallel.matrix.num_slots == matrix.num_slots
        batch_sets = _elephant_sets(batch)
        parallel_sets = _elephant_sets(parallel)
        residual = Prefix.parse("0.0.0.0/0")
        assert [s - {residual} for s in parallel_sets] == batch_sets

    def test_workers_mode_handles_off_grid_axis_start(self):
        """An axis that starts between grid points (e.g. a capture
        beginning mid-slot) must replay, not crash the merge — the
        fleet snaps its grid anchor down to the slot boundary."""
        matrix = _separated_matrix()
        shifted = RateMatrix(
            matrix.prefixes,
            TimeAxis(30.0, 60.0, matrix.num_slots),
            matrix.rates,
        )
        engine = ClassificationEngine(shifted)
        batch = engine.run(Scheme.CONSTANT_LOAD, Feature.LATENT_HEAT)
        parallel = engine.run_streaming(
            Scheme.CONSTANT_LOAD, Feature.LATENT_HEAT,
            spec=PipelineSpec(workers=2),
        )
        assert parallel.matrix.num_slots == shifted.num_slots
        residual = Prefix.parse("0.0.0.0/0")
        assert [s - {residual} for s in _elephant_sets(parallel)] == \
            _elephant_sets(batch)

    def test_workers_mode_keeps_idle_trailing_slots(self):
        """Trailing idle slots carry no packets, but the axis says
        they happened: batch classifies them through the threshold
        fallback, so the parallel replay must cover them too."""
        matrix = _separated_matrix()
        rates = matrix.rates.copy()
        rates[:, -2:] = 0.0
        quiet_tail = RateMatrix(matrix.prefixes, matrix.axis, rates)
        engine = ClassificationEngine(quiet_tail)
        parallel = engine.run_streaming(
            Scheme.CONSTANT_LOAD, Feature.LATENT_HEAT,
            spec=PipelineSpec(workers=2),
        )
        assert parallel.matrix.num_slots == quiet_tail.num_slots
        batch = engine.run(Scheme.CONSTANT_LOAD, Feature.LATENT_HEAT)
        residual = Prefix.parse("0.0.0.0/0")
        assert [s - {residual} for s in _elephant_sets(parallel)] == \
            _elephant_sets(batch)

    def test_workers_mode_matches_batch_on_idle_leading_slot(self):
        """An idle first slot has no detection history to fall back
        on: batch raises InsufficientDataError, and so must the
        parallel replay — not a runner-shaped error, not silence."""
        from repro.errors import InsufficientDataError

        matrix = _separated_matrix()
        rates = matrix.rates.copy()
        rates[:, 0] = 0.0
        quiet_head = RateMatrix(matrix.prefixes, matrix.axis, rates)
        engine = ClassificationEngine(quiet_head)
        with pytest.raises(InsufficientDataError):
            engine.run(Scheme.CONSTANT_LOAD, Feature.LATENT_HEAT)
        with pytest.raises(InsufficientDataError):
            engine.run_streaming(Scheme.CONSTANT_LOAD,
                                 Feature.LATENT_HEAT,
                                 spec=PipelineSpec(workers=2))


def _separated_matrix(num_flows=12, num_slots=6):
    rng = np.random.default_rng(77)
    prefixes = [Prefix.parse(f"10.{i}.0.0/16") for i in range(num_flows)]
    rates = np.zeros((num_flows, num_slots))
    rates[:3] = rng.uniform(5e4, 9e4, size=(3, num_slots))
    rates[3:] = rng.uniform(1e2, 2e3, size=(num_flows - 3, num_slots))
    return RateMatrix(prefixes, TimeAxis(0.0, 60.0, num_slots), rates)


def _elephant_sets(result):
    return [
        frozenset(
            prefix
            for row, prefix in enumerate(result.matrix.prefixes)
            if result.elephant_mask[row, slot]
        )
        for slot in range(result.matrix.num_slots)
    ]


class TestDynamicArrivalEquivalence:
    """Satellite: staggered flow arrival, streaming mask == batch mask.

    The stream only ever presents the flows discovered so far; the
    classifier is grown mid-stream. The batch engine sees the full
    matrix (zero rows before each flow's arrival). Their verdicts must
    agree flow-for-flow, slot-for-slot.
    """

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("feature", list(Feature))
    def test_staggered_arrival_masks_equal(self, scheme, feature):
        matrix = staggered_matrix()
        batch = ClassificationEngine(matrix).run(scheme, feature)

        class DynamicSource:
            """Presents only the flows that have appeared so far."""

            slot_seconds = matrix.axis.slot_seconds

            def slots(self):
                from repro.pipeline.sources import SlotFrame
                for slot in range(matrix.num_slots):
                    seen = (matrix.rates[:, :slot + 1] > 0).any(axis=1)
                    active = np.flatnonzero(seen)
                    population = (int(active.max()) + 1 if active.size
                                  else 0)
                    yield SlotFrame(
                        slot=slot,
                        start=matrix.axis.slot_start(slot),
                        rates=matrix.rates[:population, slot],
                        population=matrix.prefixes[:population],
                    )

        result, _ = run_stream(DynamicSource(), scheme=scheme,
                               feature=feature)
        # streamed rows are a prefix-aligned subset of the batch rows
        num_streamed = result.matrix.num_flows
        assert result.matrix.prefixes == matrix.prefixes[:num_streamed]
        assert np.array_equal(
            result.elephant_mask,
            batch.elephant_mask[:num_streamed, :],
        )
        # every flow the stream never saw was never an elephant in batch
        assert not batch.elephant_mask[num_streamed:, :].any()

    def test_chunked_property_sweep(self):
        """Property-style: several seeds, default scheme, exact equality."""
        for seed in (1, 2, 3):
            matrix = staggered_matrix(num_flows=24, num_slots=30,
                                      seed=seed)
            batch = ClassificationEngine(matrix).run(
                Scheme.CONSTANT_LOAD, Feature.LATENT_HEAT,
            )
            streamed = ClassificationEngine(matrix).run_streaming(
                Scheme.CONSTANT_LOAD, Feature.LATENT_HEAT,
            )
            assert np.array_equal(batch.elephant_mask,
                                  streamed.elephant_mask), f"seed {seed}"


class TestPcapPipelineEquivalence:
    @pytest.fixture(scope="class")
    def capture(self, tmp_path_factory):
        rng = np.random.default_rng(23)
        prefixes = [Prefix.parse(f"10.{i}.0.0/16") for i in range(10)]
        routes = [
            Route(prefix, AsPath((65000 + i,)),
                  AutonomousSystem(65000 + i, AsTier.STUB))
            for i, prefix in enumerate(prefixes)
        ]
        table = RoutingTable(routes)
        axis = TimeAxis(0.0, 60.0, 5)
        rates = rng.uniform(1e5, 6e5, size=(10, 5))
        for i in range(10):
            rates[i, :i // 3] = 0.0  # staggered arrival in the capture
        matrix = RateMatrix(prefixes, axis, rates)
        path = str(tmp_path_factory.mktemp("stream") / "link.pcap")
        write_pcap(matrix, path, PacketizerConfig(seed=4))
        return path, table, axis

    def test_stream_equals_batch_end_to_end(self, capture):
        path, table, axis = capture
        recovered, _ = aggregate_pcap(path, table, axis)
        batch = ClassificationEngine(recovered).run(
            Scheme.CONSTANT_LOAD, Feature.LATENT_HEAT,
        )

        aggregator = StreamingAggregator(table, slot_seconds=60.0,
                                         start=0.0)
        source = AggregatingSlotSource(
            PcapPacketSource(path, chunk_packets=4096), aggregator,
        )
        result, series = run_stream(source)

        assert result.matrix.num_slots == batch.matrix.num_slots
        for prefix in recovered.prefixes:
            batch_row = batch.matrix.index_of(prefix)
            stream_row = result.matrix.index_of(prefix)
            assert np.allclose(recovered.rates[batch_row],
                               result.matrix.rates[stream_row])
            assert np.array_equal(batch.elephant_mask[batch_row],
                                  result.elephant_mask[stream_row])
        assert series.counts.size == batch.matrix.num_slots

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
            classifier.num_flows, classifier.window,
        )
