"""Integration: the paper's qualitative claims on a miniature full run.

Each test maps to a claim in DESIGN.md's reproduction table. These are
*shape* assertions (orderings, factors, bands) — the absolute numbers
live in EXPERIMENTS.md, produced by the full-scale benchmarks.
"""

import numpy as np

from repro.analysis.churn import churn_reduction
from repro.analysis.elephants import ElephantSeries, working_hours_lift
from repro.analysis.holding import HoldingTimeAnalysis
from repro.core.engine import Feature, Scheme
from repro.experiments.figures import Figure1a, Figure1b, Figure1c
from repro.experiments.textstats import SingleVsTwoFeature


class TestFig1aShape:
    def test_elephants_are_hundreds_not_thousands(self, tiny_paper_run):
        figure = Figure1a.from_run(tiny_paper_run)
        for label, mean_count in figure.mean_counts().items():
            num_flows = 640  # tiny run population
            assert 10 < mean_count < num_flows / 2, label

    def test_west_burstier_than_east(self, tiny_paper_run):
        for scheme in Scheme:
            lifts = {}
            for link in ("west-coast", "east-coast"):
                result = tiny_paper_run.result(link, scheme,
                                               Feature.LATENT_HEAT)
                series = ElephantSeries.from_result(result)
                lifts[link] = working_hours_lift(series)
            assert lifts["west-coast"] > lifts["east-coast"], scheme


class TestFig1bShape:
    def test_fraction_band(self, tiny_paper_run):
        """Fractions sit in a broad band around the paper's 0.6 and
        below the constant-load target of 0.8 on average."""
        figure = Figure1b.from_run(tiny_paper_run)
        for label, fraction in figure.mean_fractions().items():
            assert 0.4 < fraction < 0.85, label

    def test_latent_heat_does_not_exceed_single_feature_coverage(
            self, tiny_paper_run):
        """Latent heat evicts non-persistent flows, so its traffic
        coverage cannot meaningfully exceed the single-feature one."""
        for link in ("west-coast", "east-coast"):
            single = tiny_paper_run.result(link, Scheme.CONSTANT_LOAD,
                                           Feature.SINGLE)
            latent = tiny_paper_run.result(link, Scheme.CONSTANT_LOAD,
                                           Feature.LATENT_HEAT)
            single_fraction = single.traffic_fraction_per_slot().mean()
            latent_fraction = latent.traffic_fraction_per_slot().mean()
            assert latent_fraction < single_fraction + 0.05


class TestFig1cShape:
    def test_holding_time_histogram_has_long_tail(self, tiny_paper_run):
        figure = Figure1c.from_run(tiny_paper_run)
        for label, histogram in figure.histograms().items():
            populated = [center for center, count
                         in histogram.nonzero_bins()]
            assert max(populated) > 12, label  # beyond one hour

    def test_mean_holding_around_two_hours(self, tiny_paper_run):
        """Paper: ~2 h (24 slots); accept a 1-5 h band on the mini run."""
        figure = Figure1c.from_run(tiny_paper_run)
        for label, mean_slots in figure.mean_holding_slots().items():
            assert 9 < mean_slots < 60, label


class TestInTextClaims:
    def test_single_feature_volatility(self, tiny_paper_run):
        """T1: holding 20-40 min; scaled runs land in a 10-60 min band."""
        for link in ("west-coast", "east-coast"):
            for scheme in Scheme:
                result = tiny_paper_run.result(link, scheme, Feature.SINGLE)
                analysis = HoldingTimeAnalysis.from_result(
                    result, busy_hours=tiny_paper_run.config.busy_hours
                )
                assert 10 < analysis.mean_minutes < 60, (link, scheme)

    def test_two_feature_fixes_volatility(self, tiny_paper_run):
        """T2: the headline contrast."""
        contrast = SingleVsTwoFeature.from_run(tiny_paper_run)
        assert contrast.holding_gain > 2.0
        assert contrast.one_slot_reduction > 3.0

    def test_churn_reduction_everywhere(self, tiny_paper_run):
        for link in ("west-coast", "east-coast"):
            for scheme in Scheme:
                single = tiny_paper_run.result(link, scheme, Feature.SINGLE)
                latent = tiny_paper_run.result(link, scheme,
                                               Feature.LATENT_HEAT)
                assert churn_reduction(single, latent) > 1.5, (link, scheme)

    def test_aest_rarely_needs_fallback(self, tiny_paper_run):
        for link in ("west-coast", "east-coast"):
            result = tiny_paper_run.result(link, Scheme.AEST,
                                           Feature.LATENT_HEAT)
            assert result.thresholds.fallback_rate < 0.2, link


class TestDeterminism:
    def test_rerun_is_bit_identical(self, tiny_paper_run):
        from repro.experiments.runner import run_paper_experiment
        rerun = run_paper_experiment(tiny_paper_run.config)
        for link in ("west-coast", "east-coast"):
            for scheme in Scheme:
                first = tiny_paper_run.result(link, scheme,
                                              Feature.LATENT_HEAT)
                second = rerun.result(link, scheme, Feature.LATENT_HEAT)
                assert np.array_equal(first.elephant_mask,
                                      second.elephant_mask)
