"""Unit tests for prefix-characteristics analysis (T3)."""

import pytest

from repro.analysis.prefixes import PrefixLengthReport
from repro.core.engine import Feature, Scheme


class TestPrefixLengthReport:
    @pytest.fixture(scope="class")
    def report(self, small_grid):
        result = small_grid[(Scheme.CONSTANT_LOAD, Feature.LATENT_HEAT)]
        return PrefixLengthReport.from_result(result)

    def test_elephants_are_subset_of_active(self, report):
        for length, count in report.elephant_lengths.items():
            assert count <= report.active_lengths.get(length, 0)

    def test_elephant_length_range_is_wide(self, report):
        """Elephants span many prefix lengths (paper: /12 to /26)."""
        assert report.max_elephant_length - report.min_elephant_length >= 8

    def test_slash8_counts(self, report):
        assert report.slash8_elephants <= report.slash8_active

    def test_little_correlation_between_length_and_rate(self, report):
        """The paper's core T3 claim."""
        assert abs(report.length_rate_correlation) < 0.2

    def test_slash8_not_overrepresented(self, small_grid):
        """Being a /8 must not make a prefix an elephant (paper: 3 of
        ~100 active /8s)."""
        result = small_grid[(Scheme.CONSTANT_LOAD, Feature.LATENT_HEAT)]
        report = PrefixLengthReport.from_result(result)
        if report.slash8_active == 0:
            pytest.skip("no active /8 in this small table")
        slash8_rate = report.slash8_elephants / report.slash8_active
        total_active = sum(report.active_lengths.values())
        total_elephants = sum(report.elephant_lengths.values())
        overall_rate = total_elephants / total_active
        # Same order of magnitude; no /8 privilege.
        assert slash8_rate < 4 * overall_rate + 0.05

    def test_share_by_length(self, report):
        shares = report.elephant_share_by_length()
        assert all(0.0 <= share <= 1.0 for share in shares.values())
