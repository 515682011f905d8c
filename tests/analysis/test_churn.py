"""Unit tests for churn metrics."""

import dataclasses

import numpy as np
import pytest

from repro.analysis.churn import (
    ChurnReport,
    _mean_consecutive_overlap,
    churn_reduction,
)
from repro.core.engine import Feature, Scheme


class TestOverlap:
    def test_identical_sets(self):
        mask = np.ones((3, 4), dtype=bool)
        assert _mean_consecutive_overlap(mask) == 1.0

    def test_disjoint_sets(self):
        mask = np.array([
            [True, False, True, False],
            [False, True, False, True],
        ])
        assert _mean_consecutive_overlap(mask) == 0.0

    def test_single_slot(self):
        assert _mean_consecutive_overlap(np.ones((3, 1), bool)) == 1.0

    def test_empty_slots_skipped(self):
        mask = np.zeros((2, 3), dtype=bool)
        assert _mean_consecutive_overlap(mask) == 1.0

    def test_partial_overlap_is_jaccard(self):
        mask = np.array([
            [True, True],
            [True, False],
        ])
        assert _mean_consecutive_overlap(mask) == 0.5

    def test_empty_pairs_do_not_dilute_the_mean(self):
        # pairs: {0}->{0} is 1, {0}->{} is 0, {}->{} is skipped
        mask = np.array([[True, True, False, False]])
        assert _mean_consecutive_overlap(mask) == 0.5


class TestChurnReport:
    def test_from_result(self, small_grid):
        result = small_grid[(Scheme.CONSTANT_LOAD, Feature.SINGLE)]
        report = ChurnReport.from_result(result)
        assert report.total_transitions > 0
        assert 0.0 <= report.class_overlap <= 1.0
        assert report.transitions_per_slot == pytest.approx(
            report.total_transitions / result.matrix.num_slots
        )

    def test_latent_heat_reduces_churn(self, small_grid):
        """The design goal of the latent-heat feature, quantified."""
        for scheme in Scheme:
            single = small_grid[(scheme, Feature.SINGLE)]
            latent = small_grid[(scheme, Feature.LATENT_HEAT)]
            assert churn_reduction(single, latent) > 2.0
            single_report = ChurnReport.from_result(single)
            latent_report = ChurnReport.from_result(latent)
            assert latent_report.class_overlap > single_report.class_overlap

    def test_constant_masks_have_no_churn(self, small_grid):
        result = small_grid[(Scheme.AEST, Feature.LATENT_HEAT)]
        flows, slots = result.elephant_mask.shape
        never = dataclasses.replace(
            result, elephant_mask=np.zeros((flows, slots), dtype=bool)
        )
        report = ChurnReport.from_result(never)
        assert report.total_transitions == 0
        assert report.mean_transitions_per_active_flow == 0.0
        assert report.class_overlap == 1.0
        always = dataclasses.replace(
            result, elephant_mask=np.ones((flows, slots), dtype=bool)
        )
        assert churn_reduction(result, always) == float("inf")
