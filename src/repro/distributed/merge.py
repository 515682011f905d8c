"""Merging per-monitor slot summaries into one link-wide view.

Space-Saving and Misra–Gries tables merge by summing counts key-wise
and re-truncating to the capacity — the merged error stays bounded by
the sum of the parts' error bounds. The same recipe applies one
altitude up, to the per-slot byte summaries the monitors export: sum
volumes per prefix, add the residuals, and (optionally) cut the table
back to ``k`` entries with the cut mass spilling into the residual, so
the merged slot still conserves every byte any monitor saw.

:func:`merge_summaries` merges one slot across monitors;
:func:`merge_runs` aligns whole monitor runs slot by slot, tolerating
monitors that missed slots (their contribution is simply absent). The
live collector service performs the identical computation one cell at
a time through the same primitives —
:func:`~repro.distributed.framing.grid_cell`, :func:`merge_summaries`,
:func:`gap_summary` — which is what keeps its answers slot-identical to
an offline merge of the same summaries.

The merge is an index over integer keys, not a walk over ``Prefix``
objects: the inputs' ``prefixes`` are columns, their ``keys()``
(``network << 6 | length``) are concatenated, :func:`first_seen_rows`
numbers them as a dict filled in arrival order would, and one
``bincount`` adds each row's volumes in input order — the sums of the
per-entry fold this replaced, bit for bit.

Alignment is by grid cell, which *trusts monitor clocks*: a monitor
whose clock drifts past a slot boundary silently mis-bins its traffic.
:func:`estimate_clock_skew` is the collector-side check — it compares
overlapping-slot byte totals between monitor runs at candidate slot
lags, and :func:`merge_runs` raises a
:class:`~repro.errors.ClockSkewWarning` (and records the estimate on
the returned :class:`MergedRun`) when a run's totals line up better one
or more slots away from where its timestamps put them.
:func:`estimate_skew_from_totals` is the same estimator over
pre-reduced per-cell byte totals, the shape a long-lived service can
afford to keep when the summaries themselves have been retired.
"""

from __future__ import annotations

import math
import warnings
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.distributed.framing import grid_cell
from repro.distributed.summary import SlotSummary
from repro.errors import ClassificationError, ClockSkewWarning
from repro.flows.records import MAX_GAP_CELLS
from repro.net.prefix import PrefixColumns
from repro.pipeline.backends import sum_by_row

#: Widest clock offset, in slots, the skew estimator scans for.
MAX_SKEW_SLOTS = 3
#: Overlapping slots needed before a lag correlation is trusted.
MIN_SKEW_OVERLAP = 6
#: How much better (Pearson r) an offset alignment must fit than the
#: as-reported alignment before skew is declared.
SKEW_MARGIN = 0.25
#: A skewed monitor is the *same* traffic shifted in time, so the
#: offset alignment must fit almost perfectly — this floor keeps
#: chance correlations from reading as skew.
SKEW_MIN_CORRELATION = 0.9
#: t-statistic a nonzero-lag correlation must clear given its sample
#: size. Scanning 2 x MAX_SKEW_SLOTS lags over a handful of
#: overlapping slots multiple-tests its way into spurious r >= 0.9
#: hits; requiring t = r sqrt(n-2) / sqrt(1-r^2) above this keeps the
#: per-merge false-positive rate well under a percent while a real
#: shifted clock (r ~ 1) passes at any overlap.
SKEW_MIN_T_STATISTIC = 8.0


def misaligned(
    summary: SlotSummary, start: float, slot_seconds: float
) -> ClassificationError:
    """The error for a summary that does not cover the interval given."""
    return ClassificationError(
        f"summary interval (start {summary.start}, grid "
        f"{summary.slot_seconds}s) does not align with "
        f"(start {start}, grid {slot_seconds}s); "
        "monitors must share the slot grid"
    )


def too_far(cell: int, neighbour: int) -> ClassificationError:
    """The error for a gap wider than :data:`MAX_GAP_CELLS`."""
    return ClassificationError(
        f"grid cell {cell} is {abs(cell - neighbour)} cells from covered "
        f"cell {neighbour}; gap filling bridges at most {MAX_GAP_CELLS}"
    )


def first_seen_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct values of ``keys`` in first-seen order.

    Returns ``(rows, firsts)``: the row of every entry, and per row the
    position of the entry that introduced it — the numbering a dict
    filled in arrival order hands out, from one stable sort (not
    ``np.unique``: several times slower on a few thousand keys).
    """
    order = np.argsort(keys, kind="stable")  # equal keys meet, earliest first
    ranked = keys[order]
    lead = np.ones(keys.size, dtype=bool)
    lead[1:] = ranked[1:] != ranked[:-1]
    leaders = order[lead]  # per distinct key, the entry that introduced it
    opens = np.zeros(keys.size, dtype=bool)
    opens[leaders] = True
    row_at = np.cumsum(opens) - 1  # the row an introducing entry opens
    rows = np.empty(keys.size, dtype=np.int64)
    rows[order] = row_at[leaders][np.cumsum(lead) - 1]
    return rows, np.flatnonzero(opens)


def merge_summaries(
    summaries: Sequence[SlotSummary],
    k: int | None = None,
    slot: int | None = None,
) -> SlotSummary:
    """Merge one slot's summaries from several monitors.

    All inputs must cover the same interval — equal ``start`` and
    ``slot_seconds``. Monitor-local slot *numbers* may disagree (each
    monitor counts from its own first packet); pass ``slot`` to give
    the merged summary a canonical number, else the first input's is
    kept. Volumes are summed per prefix (rows in first-seen order,
    each row's additions left to right, so merging is deterministic in
    the input order), residuals are summed, and ``k`` re-truncates the
    merged table with the overflow conserved in the residual.

    Monitors may sample at different rates: their volumes are already
    inverted to full-traffic estimates, so the sums stay unbiased. The
    merged summary carries the *coarsest* input rate, which is what a
    downstream variance guard should size itself to.
    """
    summaries = list(summaries)
    if not summaries:
        raise ClassificationError("no summaries to merge")
    head = summaries[0]
    for summary in summaries[1:]:
        interval = (summary.start, summary.slot_seconds)
        if interval != (head.start, head.slot_seconds):
            raise misaligned(summary, head.start, head.slot_seconds)
    tables = [summary.prefixes for summary in summaries]
    entries = PrefixColumns(
        np.concatenate([table.network for table in tables]),
        np.concatenate([table.length for table in tables]),
    )
    rows, firsts = first_seen_rows(entries.keys())
    merged = SlotSummary(
        slot=head.slot if slot is None else slot,
        start=head.start,
        slot_seconds=head.slot_seconds,
        prefixes=entries[firsts],
        volumes=sum_by_row(
            rows, np.concatenate([s.volumes for s in summaries]), firsts.size
        ),
        residual_bytes=sum((s.residual_bytes for s in summaries), 0.0),
        monitor=f"merged[{len(summaries)}]",
        sample_rate=max(summary.sample_rate for summary in summaries),
    )
    if k is not None:
        merged = merged.truncated(k)
    return merged


class MergedRun(list):
    """A merged slot sequence plus collector-side diagnostics.

    Behaves exactly like the ``list[SlotSummary]`` older callers
    expect; ``skew_estimate`` maps each input run's index to its
    estimated clock offset in seconds (``0.0`` when the run aligns, or
    when too little overlap exists to tell).
    """

    def __init__(
        self,
        summaries: Iterable[SlotSummary],
        skew_estimate: dict[int, float] | None = None,
    ) -> None:
        super().__init__(summaries)
        self.skew_estimate: dict[int, float] = dict(skew_estimate or {})

    @property
    def max_abs_skew(self) -> float:
        """Largest estimated clock offset across runs, in seconds."""
        if not self.skew_estimate:
            return 0.0
        return max(abs(value) for value in self.skew_estimate.values())


def cell_totals(
    run: Sequence[SlotSummary], seconds: float
) -> dict[int, float]:
    """Per-grid-cell byte totals for one monitor run.

    The reduction the skew estimator runs on — and the only per-run
    state a live collector needs to retain for it.
    """
    totals: dict[int, float] = {}
    for summary in run:
        cell = grid_cell(summary.start, seconds)
        totals[cell] = totals.get(cell, 0.0) + summary.total_bytes
    return totals


def _lag_correlation(
    reference: Mapping[int, float],
    other: Mapping[int, float],
    lag: int,
    min_overlap: int,
) -> tuple[float, int] | None:
    """Pearson r (and sample size) of reference[c] vs other[c + lag]."""
    cells = [cell for cell in reference if cell + lag in other]
    if len(cells) < min_overlap:
        return None
    left = np.array([reference[cell] for cell in cells])
    right = np.array([other[cell + lag] for cell in cells])
    if left.std() == 0.0 or right.std() == 0.0:
        return None
    return float(np.corrcoef(left, right)[0, 1]), len(cells)


def _significance_floor(count: int) -> float:
    """The r below which ``count`` points cannot clear the t floor."""
    t_squared = SKEW_MIN_T_STATISTIC**2
    return math.sqrt(t_squared / (t_squared + count - 2))


def estimate_skew_from_totals(
    totals: Sequence[Mapping[int, float]],
    grid: float,
    max_lag_slots: int = MAX_SKEW_SLOTS,
    min_overlap: int = MIN_SKEW_OVERLAP,
) -> dict[int, float]:
    """Clock-skew estimates over pre-reduced per-cell byte totals.

    ``totals[i]`` maps grid cell → bytes for monitor run ``i`` (the
    shape :func:`cell_totals` produces). The longest run anchors the
    comparison; every other run's totals are correlated against the
    anchor's at slot lags ``-max_lag_slots .. +max_lag_slots``. See
    :func:`estimate_clock_skew` for the decision rule.
    """
    estimates = {index: 0.0 for index in range(len(totals))}
    if len(totals) < 2:
        return estimates
    anchor_index = max(range(len(totals)), key=lambda i: len(totals[i]))
    anchor = totals[anchor_index]
    for index, cells in enumerate(totals):
        if index == anchor_index:
            continue
        aligned = _lag_correlation(anchor, cells, 0, min_overlap)
        best_lag, best = 0, aligned
        for lag in range(-max_lag_slots, max_lag_slots + 1):
            if lag == 0:
                continue
            score = _lag_correlation(anchor, cells, lag, min_overlap)
            if score is None:
                continue
            if best is None or score[0] > best[0]:
                best_lag, best = lag, score
        if best_lag == 0 or best is None:
            continue
        correlation, count = best
        floor = 0.0 if aligned is None else max(aligned[0], 0.0)
        if (
            correlation >= SKEW_MIN_CORRELATION
            and correlation >= _significance_floor(count)
            and correlation >= floor + SKEW_MARGIN
        ):
            # other[c + lag] matches anchor[c]: the run's totals sit
            # `lag` cells later than the traffic, so its clock is ahead
            estimates[index] = best_lag * grid
    return estimates


def estimate_clock_skew(
    runs: Sequence[Sequence[SlotSummary]],
    max_lag_slots: int = MAX_SKEW_SLOTS,
    min_overlap: int = MIN_SKEW_OVERLAP,
) -> dict[int, float]:
    """Estimate each run's clock offset from overlapping slot totals.

    The longest run anchors the comparison. For every other run, the
    per-cell byte totals are correlated against the anchor's at slot
    lags ``-max_lag_slots .. +max_lag_slots``; a run whose totals fit
    decisively better at a nonzero lag — beating the as-reported
    alignment by :data:`SKEW_MARGIN` of Pearson r, above the
    :data:`SKEW_MIN_CORRELATION` floor, *and* statistically
    significant for its overlap size (:data:`SKEW_MIN_T_STATISTIC`) —
    is estimated to be skewed by that many slots. Positive means the
    run's clock reads *ahead* (its traffic lands in later cells than
    it occurred in). Runs with fewer than ``min_overlap`` comparable
    cells, or without a decisive fit, estimate ``0.0``: absence of
    evidence is not skew. The estimator presumes the runs watch the
    *same* link (taps of one traffic mix); monitors of unrelated links
    have uncorrelated totals at every lag and the significance floor
    is what keeps them from producing chance verdicts.
    """
    estimates = {index: 0.0 for index in range(len(runs))}
    if len(runs) < 2:
        return estimates
    seconds = {summary.slot_seconds for run in runs for summary in run}
    if len(seconds) != 1:
        return estimates  # mixed grids fail the merge itself
    grid = seconds.pop()
    totals = [cell_totals(run, grid) for run in runs]
    return estimate_skew_from_totals(
        totals, grid, max_lag_slots=max_lag_slots, min_overlap=min_overlap
    )


def gap_summary(cell: int, first_cell: int, seconds: float) -> SlotSummary:
    """A merged slot for an interval no monitor covered.

    The silent-link slot a single monitor would have observed: no
    entries, no bytes, numbered on the shared grid like its covered
    neighbours.
    """
    return SlotSummary(
        slot=cell - first_cell,
        start=cell * seconds,
        slot_seconds=seconds,
        prefixes=(),
        volumes=np.zeros(0),
        residual_bytes=0.0,
        monitor="merged[0]",
    )


def merge_runs(
    runs: Sequence[Sequence[SlotSummary]],
    k: int | None = None,
    fill_gaps: bool = False,
    check_skew: bool = True,
) -> MergedRun:
    """Align and merge whole monitor runs, slot by slot.

    Alignment is by *absolute* position on the slot grid (the slot's
    start time), not by each monitor's local slot counter — a monitor
    that came up three slots late still merges against the interval it
    actually measured. Returns merged summaries for the union of
    intervals any monitor covered, in time order, renumbered on the
    shared grid from the earliest merged interval. Monitors absent
    from an interval contribute nothing to it; monitors must share the
    slot grid.

    ``fill_gaps`` additionally emits an *empty* merged slot for every
    grid cell between the first and last covered interval that no
    monitor reported — the silent-link slot a single monitor would
    have observed — so downstream classification sees a contiguous
    slot sequence. Covered cells farther apart than
    :data:`MAX_GAP_CELLS` are refused then, before anything is filled.

    The result is a :class:`MergedRun` carrying a per-run clock-skew
    estimate; a :class:`~repro.errors.ClockSkewWarning` is emitted for
    any run whose totals align a full slot (or more) away from its
    reported timestamps. ``check_skew=False`` skips the estimate —
    right when the runs share one clock by construction (shard workers
    on a single host), where per-run totals are uncorrelated because
    the flows, not the packets, were partitioned.
    """
    flat = [summary for run in runs for summary in run]
    if not flat:
        raise ClassificationError("no summaries to merge")
    grids = {summary.slot_seconds for summary in flat}
    if len(grids) > 1:
        raise ClassificationError(
            f"monitor runs mix slot grids {sorted(grids)}; "
            "re-slot before merging"
        )
    seconds = flat[0].slot_seconds
    skew = (
        estimate_clock_skew(runs)
        if check_skew
        else {index: 0.0 for index in range(len(runs))}
    )
    for index, offset in skew.items():
        if offset:
            monitor = next((s.monitor for s in runs[index] if s.monitor), "")
            label = f" ({monitor})" if monitor else ""
            warnings.warn(
                ClockSkewWarning(
                    f"monitor run {index}{label} slot totals align "
                    f"{offset:+g}s away from their timestamps; its "
                    "clock appears skewed beyond a slot boundary and "
                    "its traffic may be mis-binned"
                ),
                stacklevel=2,
            )
    by_cell: dict[int, list[SlotSummary]] = {}
    for summary in flat:
        cell = grid_cell(summary.start, seconds)
        by_cell.setdefault(cell, []).append(summary)
    first_cell = min(by_cell)
    merged = []
    cells = sorted(by_cell)
    if fill_gaps:
        for low, high in zip(cells, cells[1:]):
            if high - low > MAX_GAP_CELLS:
                raise too_far(high, low)
        cells = range(first_cell, cells[-1] + 1)
    for cell in cells:
        if cell in by_cell:
            merged.append(
                merge_summaries(by_cell[cell], k=k, slot=cell - first_cell)
            )
        else:
            merged.append(gap_summary(cell, first_cell, seconds))
    return MergedRun(merged, skew_estimate=skew)


__all__ = [
    "MergedRun",
    "cell_totals",
    "estimate_clock_skew",
    "estimate_skew_from_totals",
    "gap_summary",
    "merge_runs",
    "merge_summaries",
    "misaligned",
    "too_far",
]
