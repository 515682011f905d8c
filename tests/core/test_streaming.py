"""Tests for the online (streaming) classifier.

The load-bearing property: feeding a matrix slot by slot through the
streaming pipeline yields exactly the verdicts and thresholds the batch
classifiers produce, column for column.
"""

import numpy as np
import pytest
from oracles import assert_stream_matches_batch

from repro.core.engine import EngineConfig, Feature, Scheme
from repro.core.latent_heat import LatentHeatClassifier
from repro.core.single_feature import SingleFeatureClassifier
from repro.core.streaming import OnlineClassifier
from repro.core.thresholds import AestThreshold, ConstantLoadThreshold
from repro.errors import ClassificationError
from repro.pipeline import MatrixSlotSource, StreamingPipeline


class Fixed:
    """A detector that always answers 10."""

    name = "fixed"

    def detect(self, rates, background=0.0):
        return 10.0


class TestValidation:
    def test_bad_population(self):
        with pytest.raises(ClassificationError):
            OnlineClassifier(ConstantLoadThreshold(0.8), num_flows=0)

    def test_bad_window(self):
        with pytest.raises(ClassificationError):
            OnlineClassifier(ConstantLoadThreshold(0.8), num_flows=5, window=0)

    def test_wrong_shape_rejected(self):
        classifier = OnlineClassifier(ConstantLoadThreshold(0.8), num_flows=5)
        with pytest.raises(ClassificationError):
            classifier.observe_slot(np.ones(4))


class TestBatchEquivalence:
    def test_latent_heat_matches_batch(self, small_matrix):
        batch = LatentHeatClassifier(
            ConstantLoadThreshold(0.8), window=12
        ).classify(small_matrix)
        pipeline = StreamingPipeline(
            MatrixSlotSource(small_matrix), config=EngineConfig(window=12)
        )
        assert_stream_matches_batch(pipeline, batch)

    def test_single_feature_matches_batch(self, small_matrix):
        batch = SingleFeatureClassifier(ConstantLoadThreshold(0.8)).classify(
            small_matrix
        )
        pipeline = StreamingPipeline(
            MatrixSlotSource(small_matrix), feature=Feature.SINGLE
        )
        assert_stream_matches_batch(pipeline, batch)

    def test_thresholds_match_batch(self, small_matrix):
        batch = LatentHeatClassifier(AestThreshold()).classify(small_matrix)
        pipeline = StreamingPipeline(
            MatrixSlotSource(small_matrix), scheme=Scheme.AEST
        )
        assert_stream_matches_batch(pipeline, batch)


class TestVerdict:
    def test_verdict_contents(self, small_matrix):
        online = OnlineClassifier(
            ConstantLoadThreshold(0.8), num_flows=small_matrix.num_flows
        )
        verdict = online.observe_slot(small_matrix.slot_rates(0))
        assert verdict.slot == 0
        assert verdict.num_elephants == len(verdict.elephants())
        assert verdict.latent_heat is not None

    def test_single_feature_has_no_heat(self, small_matrix):
        online = OnlineClassifier(
            ConstantLoadThreshold(0.8),
            num_flows=small_matrix.num_flows,
            use_latent_heat=False,
        )
        verdict = online.observe_slot(small_matrix.slot_rates(0))
        assert verdict.latent_heat is None

    def test_grow_preserves_existing_state(self):
        """Heat of pre-existing rows is untouched by growth."""
        online = OnlineClassifier(Fixed(), num_flows=2, window=3)
        online.observe_slot(np.array([20.0, 5.0]))
        before = online.observe_slot(np.array([20.0, 5.0]))
        online.grow(4)
        after = online.observe_slot(np.array([20.0, 5.0, 0.0, 0.0]))
        assert online.num_flows == 4
        assert after.latent_heat[0] == pytest.approx(
            before.latent_heat[0] + 10.0
        )
        assert after.elephant_mask[:2].tolist() == [True, False]

    def test_grow_backfills_zero_rate_history(self):
        """A grown row equals a row that was all-zero from slot 0."""
        grown = OnlineClassifier(Fixed(), num_flows=1, window=3)
        virgin = OnlineClassifier(Fixed(), num_flows=2, window=3)
        for rate in (20.0, 30.0):
            grown.observe_slot(np.array([rate]))
            virgin.observe_slot(np.array([rate, 0.0]))
        grown.grow(2)
        for rate in (25.0, 15.0):
            a = grown.observe_slot(np.array([rate, 0.0]))
            b = virgin.observe_slot(np.array([rate, 0.0]))
            assert np.allclose(a.latent_heat, b.latent_heat)
            assert np.array_equal(a.elephant_mask, b.elephant_mask)

    def test_grow_noop_and_shrink_rejected(self):
        online = OnlineClassifier(ConstantLoadThreshold(0.8), num_flows=3)
        online.grow(3)
        assert online.num_flows == 3
        with pytest.raises(ClassificationError):
            online.grow(2)

    def test_ring_buffer_wraps_correctly(self):
        """Heat over a window of 3 with a deterministic threshold."""
        online = OnlineClassifier(Fixed(), num_flows=1, window=3)
        rates_sequence = [20.0, 0.0, 0.0, 0.0, 30.0]
        heats = []
        for rate in rates_sequence:
            verdict = online.observe_slot(np.array([rate]))
            heats.append(float(verdict.latent_heat[0]))
        # deviations: +10, -10, -10, -10, +20 ; window-3 sums:
        assert heats == [10.0, 0.0, -10.0, -30.0, 0.0]


class TestExcludedRows:
    """Residual-row exclusion: withheld from thresholds and verdicts."""

    def make(self, num_flows=4):
        return OnlineClassifier(
            ConstantLoadThreshold(0.8), num_flows=num_flows
        )

    def test_excluded_row_never_elephant(self):
        classifier = self.make()
        rates = np.array([9e9, 100.0, 200.0, 5e6])
        verdict = classifier.observe_slot(rates, exclude_rows=np.array([0]))
        assert not verdict.elephant_mask[0]
        # the huge excluded row did not drag the threshold up past the
        # genuinely heavy flow
        assert verdict.elephant_mask[3]

    def test_exclusion_emptied_lead_in_bootstraps_from_residual(self):
        """An all-residual lead-in slot detects its threshold from the
        unexcluded (link-level) rates: positive threshold, zero
        elephants, slot indices in sync for later verdicts."""
        classifier = self.make(num_flows=2)
        first = classifier.observe_slot(
            np.array([500.0, 0.0]), exclude_rows=np.array([0])
        )
        assert first.thresholds.slot == 0
        assert first.thresholds.raw > 0.0
        assert first.thresholds.smoothed > 0.0
        assert first.num_elephants == 0
        second = classifier.observe_slot(
            np.array([500.0, 4000.0]), exclude_rows=np.array([0])
        )
        assert second.thresholds.slot == 1
        assert second.elephant_mask[1]
        assert not second.elephant_mask[0]

    def test_genuinely_empty_slot_still_raises_like_batch(self):
        """An all-zero first slot fails exactly as the batch engine
        does — with or without exclusions — the equivalence contract."""
        from repro.errors import EstimatorError

        classifier = self.make(num_flows=2)
        with pytest.raises(EstimatorError):
            classifier.observe_slot(np.zeros(2))
        with pytest.raises(EstimatorError):
            self.make(num_flows=2).observe_slot(
                np.zeros(2), exclude_rows=np.array([0])
            )

    def test_excluded_bytes_are_the_cuts_background(self):
        """The residual is no candidate for the cut, but its bytes are
        the slot's traffic: 0.8 of 110 takes all three named flows."""
        verdict = self.make().observe_slot(
            np.array([10.0, 50.0, 30.0, 20.0]), exclude_rows=np.array([0])
        )
        assert verdict.thresholds.raw == 10.0
        assert not verdict.thresholds.below_table
        assert verdict.elephant_mask.tolist() == [False, True, True, True]

    def test_below_table_lead_in_then_empty_gap_cell(self):
        """A merged run's first cell is mostly residual and its next is
        a gap no monitor covered: both classify, neither raises."""
        classifier = self.make(num_flows=3)
        first = classifier.observe_slot(
            np.array([900.0, 30.0, 10.0]), exclude_rows=np.array([0])
        )
        assert first.thresholds.below_table
        gap = classifier.observe_slot(
            np.zeros(3), exclude_rows=np.array([0])
        )
        assert gap.thresholds.fallback_used
        assert gap.thresholds.raw == first.thresholds.raw

    def test_out_of_range_exclusions_ignored(self):
        classifier = self.make(num_flows=2)
        verdict = classifier.observe_slot(
            np.array([100.0, 4000.0]),
            exclude_rows=np.array([-3, 7]),
        )
        assert verdict.elephant_mask[1]
