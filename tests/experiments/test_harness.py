"""Tests for the experiment harness: config, runner, figures, stats."""

import pytest

from repro.core.engine import Feature, Scheme
from repro.errors import ExperimentError
from repro.experiments.config import (
    SCALE_ENV_VAR,
    ExperimentConfig,
    bench_scale,
)
from repro.experiments.figures import Figure1a, Figure1b, Figure1c
from repro.experiments.runner import cached_paper_run
from repro.experiments.textstats import (
    SingleVsTwoFeature,
    prefix_reports,
    volatility_grid,
)


class TestConfig:
    def test_scale_bounds(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(scale=0.0)
        with pytest.raises(ExperimentError):
            ExperimentConfig(scale=1.5)

    def test_busy_hours_bounds(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(busy_hours=0.0)

    def test_bench_scale_env_override(self, monkeypatch):
        monkeypatch.setenv(SCALE_ENV_VAR, "0.25")
        assert bench_scale() == 0.25

    def test_bench_scale_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(SCALE_ENV_VAR, "huge")
        with pytest.raises(ExperimentError):
            bench_scale()
        monkeypatch.setenv(SCALE_ENV_VAR, "2.0")
        with pytest.raises(ExperimentError):
            bench_scale()


class TestRunner:
    def test_grid_complete(self, tiny_paper_run):
        assert set(tiny_paper_run.workloads) == {"west-coast", "east-coast"}
        for link in tiny_paper_run.workloads:
            for scheme in Scheme:
                for feature in Feature:
                    result = tiny_paper_run.result(link, scheme, feature)
                    assert result.matrix.num_flows > 0

    def test_latent_heat_view(self, tiny_paper_run):
        results = tiny_paper_run.latent_heat_results()
        assert len(results) == 4
        assert all(r.classifier == "latent-heat" for r in results.values())

    def test_single_feature_view(self, tiny_paper_run):
        results = tiny_paper_run.single_feature_results()
        assert len(results) == 4
        assert all(r.classifier == "single-feature"
                   for r in results.values())

    def test_cache_returns_same_object(self):
        config = ExperimentConfig(scale=0.08)
        first = cached_paper_run(config)
        second = cached_paper_run(config)
        assert first is second


class TestFigures:
    def test_fig1a_structure(self, tiny_paper_run):
        figure = Figure1a.from_run(tiny_paper_run)
        assert len(figure.series) == 4
        assert "aest (west-coast)" in figure.series
        assert "constant load (east-coast)" in figure.series
        counts = figure.mean_counts()
        assert all(value > 0 for value in counts.values())
        rendered = figure.render()
        assert "Fig 1(a)" in rendered
        assert "legend" in rendered

    def test_fig1b_fractions_in_unit_interval(self, tiny_paper_run):
        figure = Figure1b.from_run(tiny_paper_run)
        for value in figure.mean_fractions().values():
            assert 0.0 < value < 1.0
        assert "Fig 1(b)" in figure.render()

    def test_fig1c_histograms(self, tiny_paper_run):
        figure = Figure1c.from_run(tiny_paper_run)
        histograms = figure.histograms()
        assert len(histograms) == 4
        for histogram in histograms.values():
            assert histogram.total > 0
        assert "Fig 1(c)" in figure.render()


class TestTextStats:
    def test_volatility_grid_shape(self, tiny_paper_run):
        grid = volatility_grid(tiny_paper_run, Feature.SINGLE)
        assert len(grid) == 4
        for stats in grid:
            assert stats.mean_holding_minutes > 0
            assert stats.flows_ever_elephant > 0

    def test_single_vs_two_feature_contrast(self, tiny_paper_run):
        """The paper's headline claims, on the miniature run."""
        contrast = SingleVsTwoFeature.from_run(tiny_paper_run)
        assert contrast.holding_gain > 2.0
        assert contrast.one_slot_reduction > 3.0
        assert (contrast.latent_mean_holding_minutes
                > contrast.single_mean_holding_minutes)

    def test_prefix_reports(self, tiny_paper_run):
        reports = prefix_reports(tiny_paper_run)
        assert set(reports) == {"west-coast", "east-coast"}
        for report in reports.values():
            assert abs(report.length_rate_correlation) < 0.25
