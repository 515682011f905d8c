"""Unit tests for link simulation and scenarios."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.routing.ribgen import RibGeneratorConfig, generate_rib
from repro.traffic.diurnal import WEST_COAST_PROFILE
from repro.traffic.flowmodel import FlowModelConfig
from repro.traffic.linksim import (
    OC12_CAPACITY_BPS,
    LinkConfig,
    simulate_link,
)
from repro.traffic.scenarios import (
    PAPER_NUM_FLOWS,
    PAPER_NUM_SLOTS,
    east_coast_config,
    west_coast_config,
    west_coast_link,
)


def small_config(**overrides):
    defaults = dict(
        name="unit",
        profile=WEST_COAST_PROFILE,
        flow_model=FlowModelConfig(num_flows=400),
        num_slots=48,
        seed=9,
    )
    defaults.update(overrides)
    return LinkConfig(**defaults)


class TestLinkConfig:
    @pytest.mark.parametrize("kwargs", [
        {"capacity_bps": 0.0},
        {"target_mean_utilization": 0.0},
        {"target_mean_utilization": 1.0},
        {"num_slots": 0},
        {"slot_seconds": 0.0},
        {"max_flow_capacity_fraction": 0.0},
        {"max_flow_capacity_fraction": 1.5},
        {"seed": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(WorkloadError):
            small_config(**kwargs).validate()

    def test_seed_zero_and_full_capacity_fraction_accepted(self):
        small_config(seed=0, max_flow_capacity_fraction=1.0).validate()


class TestSimulateLink:
    def test_shapes_and_metadata(self, small_link):
        assert small_link.matrix.num_flows == 600
        assert small_link.matrix.num_slots == 72
        assert len(small_link.table) >= small_link.matrix.num_flows

    def test_utilization_near_target_and_capacity_respected(self,
                                                            small_link):
        capacity = small_link.config.capacity_bps
        utilization = small_link.mean_utilization()
        assert 0.05 < utilization <= small_link.config.target_mean_utilization + 0.01
        peak = small_link.matrix.total_per_slot().max()
        assert peak <= 0.90 * capacity * 1.0001

    def test_prefixes_are_route_keys(self, small_link):
        for prefix in small_link.matrix.prefixes[:20]:
            assert small_link.table.route_for(prefix) is not None

    def test_deterministic(self):
        first = simulate_link(small_config())
        second = simulate_link(small_config())
        assert np.array_equal(first.matrix.rates, second.matrix.rates)
        assert first.matrix.prefixes == second.matrix.prefixes

    def test_explicit_table_used(self):
        table = generate_rib(RibGeneratorConfig(num_routes=500, seed=1))
        workload = simulate_link(small_config(), table=table)
        assert workload.table is table

    def test_too_small_table_rejected(self):
        table = generate_rib(RibGeneratorConfig(num_routes=100,
                                                num_slash8=10, seed=1))
        with pytest.raises(WorkloadError):
            simulate_link(small_config(), table=table)

    def test_rate_prefix_decoupling(self, small_link):
        """Prefix length must carry ~no information about flow rate."""
        lengths = np.array([p.length for p in small_link.matrix.prefixes])
        mean_rates = small_link.matrix.rates.mean(axis=1)
        active = mean_rates > 0
        correlation = np.corrcoef(lengths[active],
                                  np.log10(mean_rates[active]))[0, 1]
        assert abs(correlation) < 0.15


class TestScenarios:
    def test_scale_shrinks_population(self):
        full = west_coast_config(scale=1.0)
        half = west_coast_config(scale=0.5)
        assert half.flow_model.num_flows == full.flow_model.num_flows // 2
        assert half.num_slots == full.num_slots // 2

    def test_bad_scale_rejected(self):
        with pytest.raises(WorkloadError):
            west_coast_config(scale=0.0)
        with pytest.raises(WorkloadError):
            east_coast_config(scale=1.5)

    @pytest.mark.parametrize("config", [west_coast_config, east_coast_config])
    @pytest.mark.parametrize(
        "scale", [float("nan"), float("inf"), -float("inf"), -0.5]
    )
    def test_scale_outside_unit_interval_rejected(self, config, scale):
        # NaN compares false both ways, so it once passed the check
        with pytest.raises(WorkloadError, match="must be in"):
            config(scale=scale)

    def test_full_scale_is_the_paper_setup(self):
        config = east_coast_config(scale=1.0)
        assert config.flow_model.num_flows == PAPER_NUM_FLOWS
        assert config.num_slots == PAPER_NUM_SLOTS

    def test_minimum_floor(self):
        config = west_coast_config(scale=0.01)
        assert config.flow_model.num_flows >= 400
        assert config.num_slots >= 144

    def test_profiles_differ(self):
        west = west_coast_config()
        east = east_coast_config()
        assert west.profile.peak_to_trough() > east.profile.peak_to_trough()

    def test_west_coast_is_oc12(self):
        workload = west_coast_link(scale=0.05)
        assert workload.config.capacity_bps == OC12_CAPACITY_BPS
