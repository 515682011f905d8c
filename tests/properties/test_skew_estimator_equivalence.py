"""The clock-skew estimator's array pass decides as the dict walk did.

The ``LinkMerge`` a live link and ``merge_runs`` estimate skew through
scores every slot lag of a monitor in one pass over its totals columns.
``tests/oracles.py`` keeps the walk it replaced: one Pearson r per lag
over a list of the overlapping cells. Over links of one to four
monitors — copies of one traffic profile shifted up to three cells
either way with multiplicative noise, runs with gaps, constant runs,
overlaps around ``MIN_SKEW_OVERLAP`` and equally long candidate
anchors — the two estimate the same offsets.

The two compute r in different orders, so they may differ in its last
bits. A draw in which an oracle score lies within ``TOLERANCE`` of a
threshold, of zero (the floor takes ``max(r, 0)``) or of another lag's
score is discarded: there rounding, not the rule, decides.

Varying totals are whole byte counts, most below 10**7: where a run's
values nearly all agree, r is rounding noise in both computations, and
whole counts keep any spread at least one byte against values that
small. Constant runs take any value.
"""

import warnings

import numpy as np
import oracles
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.distributed import LinkMerge, SlotSummary, merge_runs
from repro.distributed.merge import (
    MAX_SKEW_SLOTS,
    MIN_SKEW_OVERLAP,
    SKEW_MARGIN,
    SKEW_MIN_CORRELATION,
)
from repro.errors import ClockSkewWarning

SLOT_SECONDS = 60.0
TOLERANCE = 1e-9
LAGS = range(-MAX_SKEW_SLOTS, MAX_SKEW_SLOTS + 1)


@st.composite
def link_totals(draw):
    """Per monitor, grid cell -> total bytes, cells ascending."""
    span = draw(st.integers(MIN_SKEW_OVERLAP - 2, MIN_SKEW_OVERLAP + 8))
    # heavy-tailed per-cell traffic, as a link's is
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    profile = np.round(rng.pareto(1.5, span) * 1e5 + 1e3).tolist()
    runs = []
    for _ in range(draw(st.sampled_from([1, 2, 2, 3, 4]))):
        kind = draw(st.sampled_from(["copy", "copy", "flat", "unrelated"]))
        shift = draw(st.integers(-MAX_SKEW_SLOTS, MAX_SKEW_SLOTS))
        # equal lengths are common, so anchor ties are too
        first = draw(st.integers(0, 2))
        last = span - draw(st.integers(0, 2))
        flat = draw(st.floats(0.01, 1e6))
        run = {}
        for cell in range(first, last):
            if draw(st.integers(0, 9)) == 0:
                continue  # a gap
            if kind == "copy":
                noise = draw(st.floats(0.9, 1.1))
                value = float(round(profile[cell] * noise))
            elif kind == "flat":
                value = flat
            else:
                value = float(draw(st.integers(0, 10**6)))
            run[MAX_SKEW_SLOTS + cell + shift] = value
        runs.append(run)
    return runs


def rounding_decides(totals):
    """Does an oracle score sit within TOLERANCE of an edge it is held
    to: a threshold, zero, or another lag's score?"""
    if len(totals) < 2:
        return False
    anchor = totals[max(range(len(totals)), key=lambda i: len(totals[i]))]
    for run in totals:
        if run is anchor:
            continue
        scores = [oracles.lag_correlation(anchor, run, lag) for lag in LAGS]
        scored = [score for score in scores if score is not None]
        ranked = sorted(r for r, _ in scored)
        if any(b - a < TOLERANCE for a, b in zip(ranked, ranked[1:])):
            return True
        aligned = scores[MAX_SKEW_SLOTS]
        floor = 0.0 if aligned is None else max(aligned[0], 0.0)
        for r, count in scored:
            edges = (
                0.0,
                SKEW_MIN_CORRELATION,
                oracles.significance_floor(count),
                floor + SKEW_MARGIN,
            )
            if any(abs(r - edge) < TOLERANCE for edge in edges):
                return True
    return False


def as_runs(totals):
    """Each monitor's totals as summaries whose total bytes they are."""
    return [
        [
            SlotSummary(
                slot=cell,
                start=cell * SLOT_SECONDS,
                slot_seconds=SLOT_SECONDS,
                prefixes=(),
                volumes=np.zeros(0),
                residual_bytes=value,
            )
            for cell, value in run.items()
        ]
        for run in totals
    ]


class TestSkewEstimatorEqualsTheWalk:
    @settings(max_examples=300, deadline=None)
    @given(totals=link_totals())
    def test_estimates_equal_the_oracle(self, totals):
        assume(not rounding_decides(totals))
        expected = oracles.estimate_skew_from_totals(totals, SLOT_SECONDS)
        got = oracles.skew_of_dict_totals(totals, SLOT_SECONDS)
        assert got == expected
        if not any(totals):
            return
        # a link keeps them as columns, as merge_runs feeds it
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClockSkewWarning)
            merged = merge_runs(as_runs(totals))
        assert merged.skew_estimate == expected

    def test_a_week_of_cells_shifted_two_cells(self):
        cells = 10_080
        profile = np.random.default_rng(7).pareto(1.2, cells) * 1e6
        totals = [
            dict(enumerate(profile.tolist())),
            # the same traffic, seen by a clock two cells ahead
            {cell + 2: 0.5 * sent for cell, sent in enumerate(profile)},
        ]
        link = LinkMerge()
        for index, run in enumerate(totals):
            link.attach(index)
            for summary in as_runs([run])[0]:
                assert link.add(index, summary)[1] == "ok"
        expected = oracles.estimate_skew_from_totals(totals, SLOT_SECONDS)
        assert expected == {0: 0.0, 1: 120.0}
        assert link.skew_estimate() == expected
        assert oracles.skew_of_dict_totals(totals, SLOT_SECONDS) == expected

    def test_flat_runs_of_fractional_bytes_are_not_evidence(self):
        """A run of 0.1 bytes a cell is constant although its rounded
        mean is not 0.1: no lag scores, and no skew is read."""
        for value in (0.1, 0.2, 0.3, 0.7, 1.1):
            for cells in range(MIN_SKEW_OVERLAP, 30):
                flat = [
                    {cell: value for cell in range(cells)},
                    {cell + 1: value for cell in range(cells)},
                ]
                estimate = oracles.skew_of_dict_totals(flat, SLOT_SECONDS)
                assert estimate == {0: 0.0, 1: 0.0}, (value, cells)

    def test_equal_scores_go_to_the_first_lag_scanned(self):
        """An alternating profile one cell late fits lags -3, -1, 1 and
        3 with r = 1 exactly; the scan keeps the first of them."""
        profile = {cell: 1.0 + 2.0 * (cell % 2) for cell in range(20)}
        late = {cell + 1: sent for cell, sent in profile.items()}
        expected = oracles.estimate_skew_from_totals(
            [profile, late], SLOT_SECONDS
        )
        assert expected == {0: 0.0, 1: -3 * SLOT_SECONDS}
        assert (
            oracles.skew_of_dict_totals([profile, late], SLOT_SECONDS)
            == expected
        )
