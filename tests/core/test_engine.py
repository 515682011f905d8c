"""Unit tests for the classification engine and result container."""

import numpy as np
import pytest

from repro.errors import ClassificationError
from repro.core.engine import (
    ClassificationEngine,
    EngineConfig,
    Feature,
    Scheme,
    make_detector,
)
from repro.core.result import ClassificationResult
from repro.core.smoothing import ThresholdSeries
from repro.core.thresholds import AestThreshold, ConstantLoadThreshold


class TestMakeDetector:
    def test_aest(self):
        assert isinstance(make_detector(Scheme.AEST), AestThreshold)

    def test_constant_load_beta(self):
        detector = make_detector(Scheme.CONSTANT_LOAD, beta=0.7)
        assert isinstance(detector, ConstantLoadThreshold)
        assert detector.beta == 0.7


class TestEngineConfig:
    @pytest.mark.parametrize("kwargs", [
        {"alpha": 1.0}, {"alpha": -0.1}, {"beta": 0.0},
        {"beta": 1.0}, {"window": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ClassificationError):
            EngineConfig(**kwargs).validate()


class TestEngineRuns:
    def test_grid_labels(self, small_grid):
        labels = {result.label for result in small_grid.values()}
        assert labels == {
            "aest single-feature",
            "aest latent-heat",
            "0.8-constant-load single-feature",
            "0.8-constant-load latent-heat",
        }

    def test_mask_shapes(self, small_grid, small_matrix):
        for result in small_grid.values():
            assert result.elephant_mask.shape == (
                small_matrix.num_flows, small_matrix.num_slots,
            )

    def test_unknown_feature_rejected(self, small_matrix):
        engine = ClassificationEngine(small_matrix)
        with pytest.raises(ClassificationError):
            engine.run(Scheme.AEST, "not-a-feature")


class TestPaperShapeOnSmallLink:
    """The paper's qualitative claims, asserted on the small test link."""

    def test_elephants_are_a_minority(self, small_grid, small_matrix):
        for result in small_grid.values():
            counts = result.elephants_per_slot()
            active = small_matrix.active_per_slot()
            assert np.all(counts < active * 0.5)
            assert counts.mean() > 5

    def test_elephants_carry_disproportionate_traffic(self, small_grid):
        for result in small_grid.values():
            fraction = result.traffic_fraction_per_slot().mean()
            count_share = (result.elephants_per_slot().mean()
                           / result.matrix.num_flows)
            # A minority of flows carries a large majority of bytes; the
            # margin is modest here because a 600-flow population has a
            # thinner realised tail than the full-scale link.
            assert fraction > 2 * count_share

    def test_latent_heat_extends_holding_times(self, small_grid):
        for scheme in Scheme:
            single = small_grid[(scheme, Feature.SINGLE)]
            latent = small_grid[(scheme, Feature.LATENT_HEAT)]
            assert (latent.holding_summary().mean_holding_slots
                    > 2 * single.holding_summary().mean_holding_slots)

    def test_latent_heat_collapses_single_slot_flows(self, small_grid):
        for scheme in Scheme:
            single = small_grid[(scheme, Feature.SINGLE)]
            latent = small_grid[(scheme, Feature.LATENT_HEAT)]
            assert (latent.holding_summary().single_slot_flows
                    < 0.5 * single.holding_summary().single_slot_flows)

    def test_constant_load_fraction_near_beta_without_latent_heat(
            self, small_grid):
        result = small_grid[(Scheme.CONSTANT_LOAD, Feature.SINGLE)]
        fraction = result.traffic_fraction_per_slot()
        # The smoothed threshold tracks the target share loosely.
        assert 0.6 < fraction.mean() < 0.95


class TestClassificationResult:
    def test_shape_validation(self, small_matrix):
        thresholds = ThresholdSeries(
            "s", 0.9,
            np.ones(small_matrix.num_slots),
            np.ones(small_matrix.num_slots), (),
        )
        with pytest.raises(ClassificationError):
            ClassificationResult(
                matrix=small_matrix,
                thresholds=thresholds,
                elephant_mask=np.zeros((2, 2), dtype=bool),
                classifier="x",
            )

    def test_mask_dtype_validation(self, small_matrix):
        thresholds = ThresholdSeries(
            "s", 0.9,
            np.ones(small_matrix.num_slots),
            np.ones(small_matrix.num_slots), (),
        )
        with pytest.raises(ClassificationError):
            ClassificationResult(
                matrix=small_matrix,
                thresholds=thresholds,
                elephant_mask=np.zeros(
                    (small_matrix.num_flows, small_matrix.num_slots),
                    dtype=int,
                ),
                classifier="x",
            )

    def test_restrict_slots(self, small_grid):
        result = next(iter(small_grid.values()))
        sub = result.restrict_slots(10, 20)
        assert sub.matrix.num_slots == 20
        assert sub.elephant_mask.shape[1] == 20
        assert np.array_equal(sub.elephant_mask,
                              result.elephant_mask[:, 10:30])
        assert np.array_equal(sub.thresholds.smoothed,
                              result.thresholds.smoothed[10:30])

    def test_zero_traffic_slot_fraction_is_zero(self):
        from repro.flows.matrix import RateMatrix
        from repro.flows.records import TimeAxis
        from repro.net.prefix import Prefix

        matrix = RateMatrix(
            [Prefix.parse("10.0.0.0/8")],
            TimeAxis(0.0, 300.0, 2),
            np.array([[100.0, 0.0]]),
        )
        thresholds = ThresholdSeries("s", 0.9, np.ones(2), np.ones(2), ())
        result = ClassificationResult(
            matrix=matrix, thresholds=thresholds,
            elephant_mask=np.array([[True, False]]),
            classifier="test",
        )
        fractions = result.traffic_fraction_per_slot()
        assert fractions.tolist() == [1.0, 0.0]
