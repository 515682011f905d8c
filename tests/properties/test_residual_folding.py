"""Folding sub-cut flows into a residual row leaves the cut alone.

A bounded table names some flows and sums the rest into one residual
row; the classifier withholds that row from the cut's candidates but
counts its bytes in the slot's traffic (the detector's
``background``). For constant load that is exact: the flows above the
cut carry β of the slot's bytes whichever of the flows below it are
named. The oracle is an exact frame — every flow named — folded into a
residual row here, on the test side.

Rates are whole numbers, as byte counts are: the folded and unfolded
sums are then the same numbers, and a share ties β in both or in
neither.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.streaming import OnlineClassifier
from repro.core.thresholds import ConstantLoadThreshold

SLOTS = st.lists(
    st.integers(min_value=1, max_value=10**6), min_size=2, max_size=60
)
BETAS = st.sampled_from([0.5, 0.8, 0.9])


def exact_cut(rates, beta):
    """The exact frame's verdict: its cut, computed over every flow."""
    classifier = OnlineClassifier(
        ConstantLoadThreshold(beta), rates.size, use_latent_heat=False
    )
    return classifier.observe_slot(rates)


def folded(rates, beta, fold):
    """The same slot with the flows at ``fold`` summed into row 0."""
    kept = np.delete(rates, fold)
    frame = np.concatenate([[rates[fold].sum()], kept])
    classifier = OnlineClassifier(
        ConstantLoadThreshold(beta), frame.size, use_latent_heat=False
    )
    verdict = classifier.observe_slot(frame, exclude_rows=np.array([0]))
    return kept, verdict


def sub_cut_subset(draw, rates, cut, spare_runner_up):
    """Positions of a drawn subset of the flows below ``cut``."""
    below = np.flatnonzero(rates < cut)
    if spare_runner_up and below.size:
        # the largest flow below the cut is the cut's lower neighbour
        runner_up = below[np.argmax(rates[below])]
        below = below[below != runner_up]
    if not below.size:
        return below
    chosen = draw(st.lists(st.sampled_from(below.tolist()), unique=True))
    return np.array(sorted(chosen), dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), slot=SLOTS, beta=BETAS)
def test_folding_sub_cut_flows_keeps_the_threshold(data, slot, beta):
    """With the cut's lower neighbour still named, any other set of
    sub-cut flows folds away without moving the threshold at all."""
    rates = np.array(slot, dtype=float)
    exact = exact_cut(rates, beta)
    fold = sub_cut_subset(data.draw, rates, exact.thresholds.raw, True)
    assume(fold.size)
    kept, verdict = folded(rates, beta, fold)
    assert not verdict.thresholds.below_table
    assert verdict.thresholds.raw == exact.thresholds.raw
    assert not verdict.elephant_mask[0]
    assert np.array_equal(
        verdict.elephant_mask[1:], np.delete(exact.elephant_mask, fold)
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data(), slot=SLOTS, beta=BETAS)
def test_folding_any_sub_cut_flows_keeps_the_elephants(data, slot, beta):
    """Folding the lower neighbour too lowers the threshold to the next
    named flow's midpoint, but the flows above it are the same."""
    rates = np.array(slot, dtype=float)
    exact = exact_cut(rates, beta)
    fold = sub_cut_subset(data.draw, rates, exact.thresholds.raw, False)
    assume(fold.size)
    kept, verdict = folded(rates, beta, fold)
    # every flow below the cut folded away and the flows above it
    # carrying exactly β: the cut falls in the residual, the one case
    # the table cannot answer (covered in tests/core)
    assume(not verdict.thresholds.below_table)
    assert verdict.thresholds.raw <= exact.thresholds.raw
    assert np.array_equal(
        verdict.elephant_mask[1:], np.delete(exact.elephant_mask, fold)
    )
    assert np.array_equal(
        kept > verdict.thresholds.raw, kept > exact.thresholds.raw
    )


@settings(max_examples=100, deadline=None)
@given(slot=SLOTS, beta=BETAS)
def test_folding_an_elephant_puts_the_cut_lower_or_below_the_table(
    slot, beta
):
    """The converse: a residual that holds an elephant's bytes is
    traffic the named flows must make up, so the cut can only fall,
    or fall below the table."""
    rates = np.array(slot, dtype=float)
    exact = exact_cut(rates, beta)
    elephants = np.flatnonzero(exact.elephant_mask)
    assume(elephants.size)
    fold = elephants[:1]
    _, verdict = folded(rates, beta, fold)
    if not verdict.thresholds.below_table:
        assert verdict.thresholds.raw <= exact.thresholds.raw
