"""Unit tests for the flow-rate process."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.traffic.diurnal import FLAT_PROFILE, WEST_COAST_PROFILE
from repro.traffic.flowmodel import (
    FlowModelConfig,
    FlowPopulation,
    generate_rate_matrix_values,
)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"num_flows": 0},
        {"rate_min_bps": 0.0},
        {"rate_min_bps": 100.0, "rate_max_bps": 10.0},
        {"noise_sigma_range": (0.5, 0.1)},
        {"noise_rho": 1.0},
        {"occupancy_range": (0.0, 0.5)},
        {"occupancy_range": (0.5, 1.5)},
        {"burst_start_probability": 0.9},
        {"burst_max_slots": 0},
        {"session_rank_boost": -1.0},
        {"session_diurnal_exponent_range": (-0.5, 1.0)},
        {"session_diurnal_exponent_range": (1.0, 0.5)},
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(WorkloadError):
            FlowModelConfig(**kwargs).validate()


class TestPopulation:
    def test_sampled_attributes_shapes(self, rng):
        config = FlowModelConfig(num_flows=500)
        population = FlowPopulation.sample(config, rng)
        assert population.num_flows == 500
        assert population.base_rates.shape == (500,)
        assert np.all(population.base_rates >= config.rate_min_bps)
        assert np.all(population.base_rates <= config.rate_max_bps)
        assert np.all(population.occupancies > 0)
        assert np.all(population.occupancies <= 1)

    def test_bigger_flows_live_longer(self, rng):
        config = FlowModelConfig(num_flows=2000)
        population = FlowPopulation.sample(config, rng)
        order = np.argsort(population.base_rates)
        small_occ = population.occupancies[order[:200]].mean()
        big_occ = population.occupancies[order[-200:]].mean()
        assert big_occ > small_occ
        small_on = population.mean_on_slots[order[:200]].mean()
        big_on = population.mean_on_slots[order[-200:]].mean()
        assert big_on > small_on

    def test_heavy_tailed_base_rates(self, rng):
        config = FlowModelConfig(num_flows=5000)
        population = FlowPopulation.sample(config, rng)
        rates = np.sort(population.base_rates)[::-1]
        top_share = rates[:250].sum() / rates.sum()
        assert top_share > 0.4  # top 5 % of flows carry > 40 % of load


class TestRateGeneration:
    def test_shape_and_nonnegativity(self, rng):
        config = FlowModelConfig(num_flows=300)
        population = FlowPopulation.sample(config, rng)
        seconds = np.arange(48) * 300.0
        rates = generate_rate_matrix_values(population, FLAT_PROFILE,
                                            seconds, rng)
        assert rates.shape == (300, 48)
        assert np.all(rates >= 0)
        assert np.all(np.isfinite(rates))

    def test_empty_slots_rejected(self, rng):
        config = FlowModelConfig(num_flows=10)
        population = FlowPopulation.sample(config, rng)
        with pytest.raises(WorkloadError):
            generate_rate_matrix_values(population, FLAT_PROFILE,
                                        np.array([]), rng)

    @staticmethod
    def flat_rates(seed):
        rng = np.random.default_rng(seed)
        population = FlowPopulation.sample(FlowModelConfig(num_flows=100), rng)
        seconds = np.arange(20) * 300.0
        return generate_rate_matrix_values(population, FLAT_PROFILE,
                                           seconds, rng)

    def test_deterministic_given_seed(self):
        assert np.array_equal(self.flat_rates(5), self.flat_rates(5))

    def test_seeds_differ(self):
        assert not np.array_equal(self.flat_rates(5), self.flat_rates(6))

    def test_diurnal_profile_shapes_load(self, rng):
        config = FlowModelConfig(num_flows=2000)
        population = FlowPopulation.sample(config, rng)
        # Full day starting at midnight.
        seconds = np.arange(288) * 300.0
        rates = generate_rate_matrix_values(population, WEST_COAST_PROFILE,
                                            seconds, rng)
        load = rates.sum(axis=0)
        night = load[:36].mean()      # 00:00 - 03:00
        day = load[144:204].mean()    # 12:00 - 17:00
        assert day > 1.5 * night

    def test_bursts_create_rate_spikes(self, rng):
        config = FlowModelConfig(num_flows=400,
                                 burst_start_probability=0.05,
                                 noise_sigma_range=(0.0, 0.0),
                                 occupancy_range=(0.999, 1.0),
                                 session_mean_slots_min=1e6)
        population = FlowPopulation.sample(config, rng)
        seconds = np.arange(60) * 300.0
        rates = generate_rate_matrix_values(population, FLAT_PROFILE,
                                            seconds, rng)
        ratios = rates.max(axis=1) / np.maximum(rates.mean(axis=1), 1e-9)
        # A visible share of flows spike well above their own mean.
        assert (ratios > 3.0).mean() > 0.1

    def test_no_bursts_when_disabled(self, rng):
        config = FlowModelConfig(num_flows=200,
                                 burst_start_probability=0.0,
                                 noise_sigma_range=(0.0, 0.0),
                                 occupancy_range=(0.999, 1.0),
                                 session_mean_slots_min=1e6,
                                 session_mean_slots_cap=1e6)
        population = FlowPopulation.sample(config, rng)
        seconds = np.arange(30) * 300.0
        rates = generate_rate_matrix_values(population, FLAT_PROFILE,
                                            seconds, rng)
        # With all stochastic components off, rates are constant in time.
        assert np.allclose(rates, rates[:, :1], rtol=1e-9)
