"""Tests for the sketch-vs-classifier comparison adapters."""

import numpy as np
import pytest

from repro.core.engine import Feature, Scheme
from repro.errors import ClassificationError
from repro.sketches.streaming_eval import (
    exact_top_k_per_slot,
    mask_agreement,
    space_saving_per_slot,
)


class TestExactTopK:
    def test_selects_largest(self, small_matrix):
        run = exact_top_k_per_slot(small_matrix, top_k=10)
        assert run.mask.shape == small_matrix.rates.shape
        for slot in (0, small_matrix.num_slots - 1):
            rates = small_matrix.slot_rates(slot)
            selected = rates[run.mask[:, slot]]
            unselected = rates[~run.mask[:, slot] & (rates > 0)]
            if selected.size and unselected.size:
                assert selected.min() >= unselected.max() - 1e-9

    def test_bad_k_rejected(self, small_matrix):
        with pytest.raises(ClassificationError):
            exact_top_k_per_slot(small_matrix, top_k=0)


class TestSpaceSavingPerSlot:
    def test_high_capacity_matches_exact_top_k(self, small_matrix):
        """With capacity >> active flows, Space-Saving is exact."""
        exact = exact_top_k_per_slot(small_matrix, top_k=20)
        sketched = space_saving_per_slot(
            small_matrix, capacity=small_matrix.num_flows + 1, top_k=20,
        )
        agreement = mask_agreement(exact.mask, sketched.mask)
        assert agreement > 0.95

    def test_capacity_validated(self, small_matrix):
        with pytest.raises(ClassificationError):
            space_saving_per_slot(small_matrix, capacity=5, top_k=10)

    def test_per_slot_counts(self, small_matrix):
        run = space_saving_per_slot(small_matrix, capacity=64, top_k=16)
        assert np.all(run.per_slot_counts <= 16)


class TestVolatilityComparison:
    def test_per_slot_heavy_hitters_churn_more_than_latent_heat(
            self, small_grid, small_matrix):
        """The paper's thesis stated against the OSS toolbox: per-slot
        top-k (even exact) holds elephant state for far shorter runs
        than the latent-heat classifier."""
        latent = small_grid[(Scheme.CONSTANT_LOAD, Feature.LATENT_HEAT)]
        k = max(1, int(latent.elephants_per_slot().mean()))
        oracle = exact_top_k_per_slot(small_matrix, top_k=k)
        oracle_holding = oracle.holding_summary().mean_holding_slots
        latent_holding = latent.holding_summary().mean_holding_slots
        assert latent_holding > 1.5 * oracle_holding


class TestMaskAgreement:
    def test_identical(self):
        mask = np.random.default_rng(0).random((5, 6)) > 0.5
        assert mask_agreement(mask, mask) == 1.0

    def test_disjoint(self):
        a = np.zeros((4, 3), dtype=bool)
        b = np.ones((4, 3), dtype=bool)
        assert mask_agreement(a, b) == 0.0

    def test_empty_slots_counted_as_agreement(self):
        a = np.zeros((4, 3), dtype=bool)
        assert mask_agreement(a, a) == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ClassificationError):
            mask_agreement(np.zeros((2, 2), bool), np.zeros((2, 3), bool))
