"""Validation suite for the aest scaling estimator.

The estimator must (a) recover known Pareto tail indices, (b) place the
tail onset inside the true power-law region of composite distributions,
and (c) refuse to hallucinate tails on light-tailed data.
"""

import numpy as np
import pytest
from oracles import hill_estimator

from repro.errors import InsufficientDataError, TailNotFoundError
from repro.stats.aest import AestConfig, aest, aggregate_sums


class TestAggregateSums:
    def test_level_one_is_copy(self):
        samples = np.array([1.0, 2.0, 3.0])
        out = aggregate_sums(samples, 1)
        assert out.tolist() == [1.0, 2.0, 3.0]
        out[0] = 99.0
        assert samples[0] == 1.0  # no aliasing

    def test_block_sums(self):
        out = aggregate_sums(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 2)
        assert out.tolist() == [3.0, 7.0]  # trailing 5.0 dropped

    def test_block_larger_than_input(self):
        assert aggregate_sums(np.array([1.0]), 4).size == 0

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            aggregate_sums(np.array([1.0]), 0)

    def test_total_preserved_when_divisible(self):
        samples = np.arange(1.0, 17.0)
        assert aggregate_sums(samples, 4).sum() == samples.sum()


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"max_levels": 1},
        {"tail_fraction": 0.0},
        {"tail_fraction": 0.9},
        {"slope_window": 1},
        {"min_tail_slope": 0.1},
        {"slope_match_tolerance": 0.0},
        {"min_accepted": 0},
        {"alpha_bounds": (2.0, 1.0)},
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            AestConfig(**kwargs).validate()


class TestEstimation:
    @pytest.mark.parametrize("alpha", [0.8, 1.0, 1.2])
    def test_recovers_pareto_index(self, rng, alpha):
        samples = rng.pareto(alpha, 25_000) + 1.0
        result = aest(samples)
        assert result.alpha == pytest.approx(alpha, abs=0.3)
        assert result.is_heavy

    def test_agrees_with_hill_on_pareto(self, rng):
        samples = rng.pareto(1.1, 25_000) + 1.0
        aest_alpha = aest(samples).alpha
        hill_alpha = hill_estimator(samples, k=1200)
        assert aest_alpha == pytest.approx(hill_alpha, abs=0.4)

    def test_onset_near_scale_for_pure_pareto(self, rng):
        # A pure Pareto is power-law from x_min on; the detected onset
        # must sit within the bottom half of the distribution's mass.
        samples = rng.pareto(1.0, 25_000) + 1.0
        onset = aest(samples).tail_onset
        assert onset < np.quantile(samples, 0.9)

    def test_onset_beyond_body_for_mixture(self, rng):
        # Lognormal body + shifted Pareto tail: the onset must land
        # beyond the bulk of the body.
        body = rng.lognormal(1.0, 1.0, 18_000)
        tail = (rng.pareto(1.1, 2_000) + 1.0) * 50.0
        samples = np.concatenate([body, tail])
        result = aest(samples)
        assert result.tail_onset > np.quantile(body, 0.75)
        assert result.is_heavy

    def test_zero_and_negative_samples_filtered(self, rng):
        samples = np.concatenate([
            rng.pareto(1.1, 20_000) + 1.0, np.zeros(100),
        ])
        result = aest(samples)
        assert np.isfinite(result.alpha)

    def test_deterministic(self, rng):
        samples = rng.pareto(1.2, 20_000) + 1.0
        first = aest(samples)
        second = aest(samples)
        assert first.alpha == second.alpha
        assert first.tail_onset == second.tail_onset


class TestRejection:
    def test_exponential_rejected(self, rng):
        with pytest.raises(TailNotFoundError):
            aest(rng.exponential(1.0, 25_000))

    def test_lognormal_rejected(self, rng):
        with pytest.raises(TailNotFoundError):
            aest(rng.lognormal(1.0, 1.0, 25_000))

    def test_uniform_rejected(self, rng):
        with pytest.raises(TailNotFoundError):
            aest(rng.uniform(1.0, 2.0, 25_000))

    def test_normal_rejected(self, rng):
        with pytest.raises(TailNotFoundError):
            aest(np.abs(rng.normal(10.0, 1.0, 25_000)))

    def test_tiny_sample_rejected(self, rng):
        with pytest.raises(InsufficientDataError):
            aest(rng.pareto(1.0, 50) + 1.0)

    def test_constant_sample_rejected(self):
        with pytest.raises((InsufficientDataError, TailNotFoundError)):
            aest(np.full(5000, 3.0))


class TestSlotSizedSamples:
    """The classifier feeds ~10^3-10^4 samples per slot; aest must work
    there, not only at textbook sample sizes."""

    def test_pareto_5k(self, rng):
        samples = rng.pareto(1.1, 5_000) + 1.0
        result = aest(samples)
        assert result.is_heavy
        assert 0.5 < result.alpha < 2.0

    def test_mixture_3k(self, rng):
        body = rng.lognormal(1.0, 1.0, 2_700)
        tail = (rng.pareto(1.1, 300) + 1.0) * 50.0
        result = aest(np.concatenate([body, tail]))
        assert result.tail_onset > np.quantile(body, 0.5)

    def test_exponential_5k_rejected(self, rng):
        with pytest.raises(TailNotFoundError):
            aest(rng.exponential(1.0, 5_000))
