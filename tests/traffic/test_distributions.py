"""Unit tests for workload distributions."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.traffic.distributions import BoundedPareto, PacketSizeMix, Pareto


class TestPareto:
    def test_samples_above_scale(self, rng):
        dist = Pareto(alpha=1.5, x_min=2.0)
        samples = dist.sample(rng, 1000)
        assert np.all(samples >= 2.0)

    def test_empirical_ccdf_matches(self, rng):
        dist = Pareto(alpha=1.2, x_min=1.0)
        samples = dist.sample(rng, 50_000)
        for x in (2.0, 5.0, 20.0):
            empirical = (samples > x).mean()
            assert empirical == pytest.approx(dist.ccdf(np.array([x]))[0],
                                              abs=0.02)

    def test_mean_formula(self, rng):
        dist = Pareto(alpha=3.0, x_min=1.0)
        assert dist.mean() == pytest.approx(1.5)
        samples = dist.sample(rng, 100_000)
        assert samples.mean() == pytest.approx(1.5, rel=0.05)

    def test_infinite_mean_guarded(self):
        with pytest.raises(WorkloadError):
            Pareto(alpha=1.0, x_min=1.0).mean()

    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0.0}, {"alpha": -1.0}, {"alpha": 1.0, "x_min": 0.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(WorkloadError):
            Pareto(**kwargs)

    def test_ccdf_below_scale_is_one(self):
        dist = Pareto(alpha=2.0, x_min=5.0)
        assert dist.ccdf(np.array([1.0]))[0] == 1.0


class TestBoundedPareto:
    def test_samples_inside_bounds(self, rng):
        dist = BoundedPareto(alpha=1.1, x_min=1.0, x_max=100.0)
        samples = dist.sample(rng, 10_000)
        assert np.all(samples >= 1.0)
        assert np.all(samples <= 100.0)

    def test_tail_shape_matches_unbounded_below_cap(self, rng):
        bounded = BoundedPareto(alpha=1.2, x_min=1.0, x_max=1e9)
        unbounded = Pareto(alpha=1.2, x_min=1.0)
        b = bounded.sample(rng, 50_000)
        u = unbounded.sample(rng, 50_000)
        for x in (3.0, 10.0):
            assert (b > x).mean() == pytest.approx((u > x).mean(), abs=0.02)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            BoundedPareto(alpha=1.0, x_min=10.0, x_max=5.0)
        with pytest.raises(WorkloadError):
            BoundedPareto(alpha=0.0, x_min=1.0, x_max=5.0)


class TestPacketSizeMix:
    def test_default_mix(self, rng):
        mix = PacketSizeMix()
        samples = mix.sample(rng, 10_000)
        assert set(np.unique(samples)) <= {40, 576, 1500}
        assert samples.mean() == pytest.approx(mix.mean_bytes(), rel=0.05)

    def test_custom_mix_normalises_weights(self):
        mix = PacketSizeMix(sizes=np.array([100, 200]),
                            weights=np.array([2.0, 2.0]))
        assert mix.weights.tolist() == [0.5, 0.5]
        assert mix.mean_bytes() == 150.0

    @pytest.mark.parametrize("kwargs", [
        {"sizes": np.array([100]), "weights": np.array([0.5, 0.5])},
        {"sizes": np.array([0]), "weights": np.array([1.0])},
        {"sizes": np.array([100]), "weights": np.array([-1.0])},
        {"sizes": np.array([], dtype=int), "weights": np.array([])},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(WorkloadError):
            PacketSizeMix(**kwargs)
