"""Merge edge cases: the collector must conserve bytes through every
combination of empty, disjoint, overlapping and truncated summaries —
and flag monitors whose clocks drifted past a slot boundary.

The columnar merge (one sort, one ``bincount``) is held to the dict
fold it replaced, kept here as the oracle: same prefixes in the same
order, volumes equal with ``==``, not ``approx``."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import first_seen_by_dict

from repro.distributed import merge_runs, merge_summaries
from repro.distributed.framing import grid_cell
from repro.distributed.merge import MAX_GAP_CELLS, first_seen_rows
from repro.distributed.summary import SlotSummary
from repro.errors import ClassificationError, ClockSkewWarning
from repro.net.prefix import Prefix


def summary(entries, slot=0, residual=0.0, monitor="m", slot_seconds=60.0):
    prefixes = tuple(Prefix.parse(p) for p, _ in entries)
    volumes = np.array([v for _, v in entries], dtype=float)
    return SlotSummary(
        slot=slot,
        start=slot * slot_seconds,
        slot_seconds=slot_seconds,
        prefixes=prefixes,
        volumes=volumes,
        residual_bytes=residual,
        monitor=monitor,
    )


def by_prefix(merged):
    return {
        str(p): v for p, v in zip(merged.prefixes, merged.volumes.tolist())
    }


class TestMergeSummaries:
    def test_empty_input_rejected(self):
        with pytest.raises(ClassificationError):
            merge_summaries([])

    def test_single_summary_is_identity_up_to_name(self):
        original = summary([("10.0.0.0/16", 100.0)], residual=7.0)
        merged = merge_summaries([original])
        assert by_prefix(merged) == {"10.0.0.0/16": 100.0}
        assert merged.residual_bytes == 7.0
        assert merged.total_bytes == original.total_bytes

    def test_empty_shard_summaries_are_absorbed(self):
        full = summary([("10.0.0.0/16", 100.0)], residual=5.0)
        empty = summary([], residual=0.0, monitor="idle")
        merged = merge_summaries([full, empty, empty])
        assert merged.total_bytes == full.total_bytes
        assert merged.num_entries == 1

    def test_disjoint_key_sets_union(self):
        west = summary([("10.0.0.0/16", 100.0), ("10.1.0.0/16", 50.0)])
        east = summary([("10.2.0.0/16", 75.0)], residual=2.0)
        merged = merge_summaries([west, east])
        assert by_prefix(merged) == {
            "10.0.0.0/16": 100.0,
            "10.1.0.0/16": 50.0,
            "10.2.0.0/16": 75.0,
        }
        assert merged.residual_bytes == 2.0

    def test_duplicate_keys_sum(self):
        a = summary(
            [("10.0.0.0/16", 100.0), ("10.1.0.0/16", 10.0)], residual=1.0
        )
        b = summary([("10.0.0.0/16", 40.0)], residual=2.0)
        c = summary([("10.0.0.0/16", 5.0), ("10.2.0.0/16", 1.0)])
        merged = merge_summaries([a, b, c])
        assert by_prefix(merged)["10.0.0.0/16"] == 145.0
        assert merged.residual_bytes == 3.0
        assert merged.total_bytes == pytest.approx(
            a.total_bytes + b.total_bytes + c.total_bytes
        )

    def test_retruncation_conserves_residual_bytes(self):
        a = summary(
            [(f"10.{i}.0.0/16", 100.0 - i) for i in range(6)], residual=11.0
        )
        b = summary(
            [(f"10.{i}.0.0/16", 50.0) for i in range(3, 9)], residual=3.0
        )
        merged = merge_summaries([a, b], k=4)
        assert merged.num_entries == 4
        # every byte either survives in the table or sits in the
        # residual: nothing is lost to the cut
        assert merged.total_bytes == pytest.approx(
            a.total_bytes + b.total_bytes
        )
        kept = set(by_prefix(merged))
        # 10.3/16 .. 10.5/16 carry ~147-150 bytes merged; they survive
        assert {"10.3.0.0/16", "10.4.0.0/16", "10.5.0.0/16"} <= kept

    def test_k_zero_pushes_everything_residual(self):
        merged = merge_summaries(
            [summary([("10.0.0.0/16", 10.0)], residual=1.0)],
            k=0,
        )
        assert merged.num_entries == 0
        assert merged.residual_bytes == 11.0

    def test_interval_mismatch_rejected(self):
        with pytest.raises(ClassificationError):
            merge_summaries([summary([], slot=0), summary([], slot=1)])

    def test_local_slot_numbers_may_disagree(self):
        # same interval, different monitor-local counters: mergeable
        early = summary([("10.0.0.0/16", 5.0)], slot=3)
        late = SlotSummary(
            0,
            180.0,
            60.0,
            (Prefix.parse("10.1.0.0/16"),),
            np.array([2.0]),
            monitor="late",
        )
        merged = merge_summaries([early, late], slot=3)
        assert merged.slot == 3
        assert merged.num_entries == 2

    def test_grid_mismatch_rejected(self):
        a = summary([], slot=0)
        b = SlotSummary(0, 0.0, 30.0, (), np.zeros(0))
        with pytest.raises(ClassificationError):
            merge_summaries([a, b])

    def test_merge_order_deterministic(self):
        a = summary([("10.0.0.0/16", 1.0), ("10.1.0.0/16", 2.0)])
        b = summary([("10.2.0.0/16", 3.0)])
        first = merge_summaries([a, b])
        second = merge_summaries([a, b])
        assert first.prefixes == second.prefixes
        assert np.array_equal(first.volumes, second.volumes)


class TestMergeRuns:
    def test_aligns_by_slot(self):
        mon_a = [summary([("10.0.0.0/16", 10.0)], slot=s) for s in range(3)]
        mon_b = [summary([("10.1.0.0/16", 5.0)], slot=s) for s in range(3)]
        merged = merge_runs([mon_a, mon_b])
        assert [m.slot for m in merged] == [0, 1, 2]
        assert all(m.num_entries == 2 for m in merged)

    def test_monitor_missing_a_slot(self):
        mon_a = [summary([("10.0.0.0/16", 10.0)], slot=s) for s in range(3)]
        mon_b = [summary([("10.1.0.0/16", 5.0)], slot=1)]
        merged = merge_runs([mon_a, mon_b])
        assert [m.num_entries for m in merged] == [1, 2, 1]

    def test_staggered_monitor_aligns_by_grid_cell(self):
        # monitor B came up one slot late: its local slot 0 is A's
        # slot 1 (start 60.0). Alignment is by interval, not counter.
        mon_a = [summary([("10.0.0.0/16", 10.0)], slot=s) for s in range(3)]
        mon_b = [
            SlotSummary(
                local,
                (local + 1) * 60.0,
                60.0,
                (Prefix.parse("10.1.0.0/16"),),
                np.array([5.0]),
                monitor="late",
            )
            for local in range(2)
        ]
        merged = merge_runs([mon_a, mon_b])
        assert [m.slot for m in merged] == [0, 1, 2]
        assert [m.num_entries for m in merged] == [1, 2, 2]
        assert merged[1].start == 60.0

    def test_numbering_anchored_at_earliest_interval(self):
        # nobody saw traffic before start 120: merged slots renumber
        # from the earliest merged interval, staying grid-contiguous
        mon = [summary([("10.0.0.0/16", 1.0)], slot=s) for s in (2, 3)]
        merged = merge_runs([mon])
        assert [m.slot for m in merged] == [0, 1]
        assert [m.start for m in merged] == [120.0, 180.0]

    def test_empty_everything_rejected(self):
        with pytest.raises(ClassificationError):
            merge_runs([[], []])

    def test_mixed_grids_rejected(self):
        fast = [SlotSummary(0, 0.0, 30.0, (), np.zeros(0))]
        slow = [summary([], slot=0)]
        with pytest.raises(ClassificationError):
            merge_runs([fast, slow])

    def test_truncation_applied_per_slot(self):
        mon_a = [
            summary([(f"10.{i}.0.0/16", 10.0 + i) for i in range(5)], slot=0)
        ]
        mon_b = [
            summary([(f"10.{i}.0.0/16", 1.0) for i in range(5, 8)], slot=0)
        ]
        merged = merge_runs([mon_a, mon_b], k=3)
        assert merged[0].num_entries == 3
        total = sum(s.total_bytes for s in mon_a + mon_b)
        assert merged[0].total_bytes == pytest.approx(total)

    def test_a_run_with_two_summaries_for_one_cell_is_refused(self):
        """They used to be summed: 100 + 50 merged as one 150 slot."""
        mon_a = [summary([("10.0.0.0/16", 10.0)], slot=s) for s in range(2)]
        mon_b = [
            summary([("10.1.0.0/16", 100.0)], slot=0),
            summary([("10.1.0.0/16", 50.0)], slot=0),
        ]
        with pytest.raises(
            ClassificationError,
            match="monitor run 1 has two summaries for grid cell 0",
        ):
            merge_runs([mon_a, mon_b])

    @pytest.mark.parametrize("offset", [10.0, 30.0, 1e-7])
    def test_off_grid_summaries_are_refused(self, offset):
        """The live rule: a summary's start opens a cell of the absolute
        grid. An origin 10 s off it used to merge; 30 s off it failed
        only where round() put two starts in one cell."""
        run = [
            SlotSummary(s, offset + s * 60.0, 60.0, (), np.zeros(0), 5.0)
            for s in range(3)
        ]
        with pytest.raises(ClassificationError, match="does not align"):
            merge_runs([run])

    def test_an_ulp_off_the_grid_is_on_it(self):
        start = 1 * 0.1 + 5 * 0.1
        assert start != 6 * 0.1
        run = [SlotSummary(5, start, 0.1, (), np.zeros(0), 5.0)]
        assert [grid_cell(m.start, 0.1) for m in merge_runs([run])] == [6]


def varied_run(monitor="m", slots=8, shift=0, seed=5, scale=1.0):
    """A run with strongly varying per-slot totals, optionally shifted
    ``shift`` whole slots later (a skewed monitor clock)."""
    rng = np.random.default_rng(seed)
    volumes = rng.uniform(10.0, 1000.0, size=slots)
    return [
        summary(
            [("10.0.0.0/16", float(volumes[s]) * scale)],
            slot=s + shift,
            monitor=monitor,
        )
        for s in range(slots)
    ]


class TestGapFilling:
    def test_default_keeps_holes(self):
        mon = [summary([("10.0.0.0/16", 1.0)], slot=s) for s in (0, 3)]
        merged = merge_runs([mon])
        assert [m.slot for m in merged] == [0, 3]

    def test_fill_gaps_emits_empty_slots(self):
        mon_a = [summary([("10.0.0.0/16", 1.0)], slot=0)]
        mon_b = [summary([("10.1.0.0/16", 2.0)], slot=3)]
        merged = merge_runs([mon_a, mon_b], fill_gaps=True)
        assert [m.slot for m in merged] == [0, 1, 2, 3]
        assert [m.start for m in merged] == [0.0, 60.0, 120.0, 180.0]
        assert merged[1].num_entries == 0
        assert merged[1].total_bytes == 0.0
        assert merged[2].slot_seconds == 60.0

    def test_fill_gaps_noop_when_contiguous(self):
        mon = [summary([("10.0.0.0/16", 1.0)], slot=s) for s in range(3)]
        gapless = merge_runs([mon], fill_gaps=True)
        plain = merge_runs([mon])
        assert [m.slot for m in gapless] == [m.slot for m in plain]

    def test_fill_gaps_bridges_exactly_the_widest_gap(self):
        cells = (0, 1, 1 + MAX_GAP_CELLS)
        mon = [summary([("10.0.0.0/16", 1.0)], slot=s) for s in cells]
        merged = merge_runs([mon], fill_gaps=True)
        assert len(merged) == 2 + MAX_GAP_CELLS
        assert merged[-1].slot == 1 + MAX_GAP_CELLS
        assert sum(m.num_entries for m in merged) == 3

    @pytest.mark.parametrize("far", [2 + MAX_GAP_CELLS, 10**18])
    def test_fill_gaps_refuses_a_wider_gap(self, far):
        """One wild clock does not make the merge seal cells by the
        quintillion: the gap is refused before anything is filled."""
        mon_a = [summary([("10.0.0.0/16", 1.0)], slot=s) for s in (0, 1)]
        mon_b = [summary([("10.1.0.0/16", 2.0)], slot=far)]
        with pytest.raises(ClassificationError, match="cells from"):
            merge_runs([mon_a, mon_b], fill_gaps=True, check_skew=False)
        # without gap filling nothing between them is built
        merged = merge_runs([mon_a, mon_b], check_skew=False)
        assert [m.slot for m in merged] == [0, 1, grid_cell(far * 60.0, 60)]


class TestClockSkew:
    def test_aligned_monitors_estimate_zero_and_stay_quiet(self):
        runs = [varied_run("a"), varied_run("b", scale=0.5)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", ClockSkewWarning)
            merged = merge_runs(runs)
        assert merged.skew_estimate == {0: 0.0, 1: 0.0}

    def test_shifted_monitor_warns_with_the_offset(self):
        # monitor b carries the same totals one slot later: its clock
        # reads 60 s ahead of the fleet's
        runs = [varied_run("a"), varied_run("b", shift=1, scale=0.5)]
        with pytest.warns(ClockSkewWarning, match=r"\+60"):
            merged = merge_runs(runs)
        assert merged.skew_estimate == {0: 0.0, 1: 60.0}

    def test_behind_clock_estimates_negative(self):
        runs = [
            varied_run("a", slots=10),
            varied_run("b", slots=10, shift=-2, scale=2.0),
        ]
        with pytest.warns(ClockSkewWarning, match="-120"):
            merged = merge_runs(runs)
        assert merged.skew_estimate[1] == -120.0

    def test_check_skew_off_skips_the_estimate(self):
        runs = [varied_run("a"), varied_run("b", shift=1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", ClockSkewWarning)
            merged = merge_runs(runs, check_skew=False)
        assert merged.skew_estimate == {0: 0.0, 1: 0.0}

    def test_short_overlap_is_not_evidence(self):
        runs = [varied_run("a", slots=3), varied_run("b", slots=3, shift=1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", ClockSkewWarning)
            merged = merge_runs(runs)
        assert merged.skew_estimate[1] == 0.0

    def test_constant_totals_are_not_evidence(self):
        flat_a = [
            summary([("10.0.0.0/16", 100.0)], slot=s, monitor="a")
            for s in range(8)
        ]
        flat_b = [
            summary([("10.1.0.0/16", 50.0)], slot=s + 1, monitor="b")
            for s in range(8)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", ClockSkewWarning)
            merged = merge_runs([flat_a, flat_b])
        assert merged.skew_estimate[1] == 0.0

    def test_single_run_estimates_nothing(self):
        assert merge_runs([varied_run()]).skew_estimate == {0: 0.0}

    def test_merge_result_still_behaves_like_a_list(self):
        merged = merge_runs([varied_run("a")])
        assert isinstance(merged, list)
        assert merged[0].slot == 0
        assert len(merged) == 8


# -- the columnar merge against the dict fold it replaced ---------------


def dict_fold(summaries, k=None):
    """``merge_summaries`` as it was: a ``dict[Prefix, float]`` walk.

    Returns the merged ``(prefixes, volumes, residual)`` before and
    the kept rows after truncation to ``k`` (stable sort, ties by row).
    """
    totals = {}
    residual = 0.0
    for one in summaries:
        residual += one.residual_bytes
        for prefix, volume in zip(one.prefixes, one.volumes.tolist()):
            totals[prefix] = totals.get(prefix, 0.0) + volume
    prefixes, volumes = list(totals), list(totals.values())
    if k is not None and len(prefixes) > k:
        order = sorted(range(len(volumes)), key=lambda row: -volumes[row])
        keep = sorted(order[:k])
        residual += sum(volumes[row] for row in order[k:])
        prefixes = [prefixes[row] for row in keep]
        volumes = [volumes[row] for row in keep]
    return prefixes, volumes, residual


#: A small pool, so generated monitors overlap; the default route is
#: in it (a monitor may track 0.0.0.0/0 as an ordinary entry).
POOL = [Prefix(0, 0)] + [Prefix((10 << 24) | (i << 16), 16) for i in range(9)]


@st.composite
def slot_summaries(draw, slot=0):
    """One monitor's summary of ``slot``: any subset of the pool."""
    prefixes = draw(st.lists(st.sampled_from(POOL), unique=True))
    volume = st.one_of(st.just(0.0), st.floats(0.0, 1e12))
    return SlotSummary(
        slot=slot,
        start=slot * 60.0,
        slot_seconds=60.0,
        prefixes=draw(st.permutations(prefixes)),
        volumes=np.array([draw(volume) for _ in prefixes]),
        residual_bytes=draw(volume),
        monitor=draw(st.sampled_from(["a", "b", "c"])),
        sample_rate=draw(st.sampled_from([1.0, 10.0, 50.0])),
    )


class TestAgainstTheDictFold:
    @settings(max_examples=200, deadline=None)
    @given(
        summaries=st.lists(slot_summaries(), min_size=1, max_size=4),
        cut=st.sampled_from([None, "0", "1", "n-1", "n"]),
    )
    def test_merge_summaries_equals_the_fold(self, summaries, cut):
        size = len(dict_fold(summaries)[0])
        k = {None: None, "0": 0, "1": 1, "n-1": max(size - 1, 0), "n": size}
        merged = merge_summaries(summaries, k=k[cut])
        prefixes, volumes, residual = dict_fold(summaries, k=k[cut])
        assert list(merged.prefixes) == prefixes
        assert merged.volumes.tolist() == volumes  # ==, bit for bit
        if k[cut] is None or size <= k[cut]:
            assert merged.residual_bytes == residual
        else:  # the spill is summed in another order than the fold's
            assert merged.residual_bytes == pytest.approx(residual)
        assert merged.sample_rate == max(s.sample_rate for s in summaries)
        assert merged.monitor == f"merged[{len(summaries)}]"

    def test_identical_inputs_double(self):
        one = summary([("10.0.0.0/16", 0.1), ("0.0.0.0/0", 0.7)])
        merged = merge_summaries([one, one, one])
        assert list(merged.prefixes) == list(one.prefixes)
        assert merged.volumes.tolist() == [0.1 + 0.1 + 0.1, 0.7 + 0.7 + 0.7]

    def test_all_inputs_empty(self):
        merged = merge_summaries([summary([]), summary([], residual=4.0)])
        assert merged.num_entries == 0
        assert merged.volumes.dtype == np.float64
        assert merged.residual_bytes == 4.0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), fill_gaps=st.booleans())
    def test_merge_runs_equals_the_fold_cell_by_cell(self, data, fill_gaps):
        slots = st.lists(st.integers(0, 5), unique=True).map(sorted)
        runs = [
            [data.draw(slot_summaries(slot=slot)) for slot in data.draw(slots)]
            for _ in range(data.draw(st.integers(1, 3)))
        ]
        if not any(runs):
            return
        merged = merge_runs(runs, k=4, fill_gaps=fill_gaps, check_skew=False)
        by_cell = {}
        for run in runs:
            for one in run:
                by_cell.setdefault(grid_cell(one.start, 60.0), []).append(one)
        cells = sorted(by_cell)
        if fill_gaps:
            cells = list(range(cells[0], cells[-1] + 1))
        assert [grid_cell(m.start, 60.0) for m in merged] == cells
        for cell, got in zip(cells, merged):
            prefixes, volumes, _ = dict_fold(by_cell.get(cell, []), k=4)
            assert got.slot == cell - cells[0]
            assert list(got.prefixes) == prefixes
            assert got.volumes.tolist() == volumes


class TestFirstSeenRows:
    @settings(max_examples=200, deadline=None)
    @given(
        keys=st.lists(
            st.integers(0, 1 << 38)
            | st.integers(0, 6)
            # spread too wide to pack with a position
            | st.integers(-(1 << 63), (1 << 63) - 1)
        )
    )
    def test_numbers_keys_as_a_dict_would(self, keys):
        rows, firsts = first_seen_rows(np.array(keys, dtype=np.int64))
        assert (rows.tolist(), firsts.tolist()) == first_seen_by_dict(keys)
