"""Merging per-monitor slot summaries into one link-wide view.

The candidate table, Space-Saving, merges by summing counts key-wise
and re-truncating to the capacity — the merged error stays bounded by
the sum of the parts' error bounds. The same recipe
applies one altitude up, to the per-slot byte summaries the monitors
export: sum volumes per prefix, add the residuals, and (optionally) cut
the table back to ``k`` entries with the cut mass spilling into the
residual, so the merged slot still conserves every byte any monitor saw.

One definition of a merged link lives here. :func:`merge_summaries`
merges one slot across monitors; :class:`LinkMerge` merges a whole
link: monitors attach, send their summaries, detach, and it seals each
grid cell, in order, once no attached monitor can add to it — through
:func:`merge_summaries`, or :func:`gap_summary` for a cell nobody
covered. The live collector service feeds it frames as they arrive
(:class:`~repro.distributed.service.LiveLink`); :func:`merge_runs`
feeds it whole monitor runs, one monitor per run, every summary in
(grid cell, run) order. An offline merge and a live link of the same
summaries are therefore one computation, not two kept equal.

The merge is an index over integer keys, not a walk over ``Prefix``
objects: the inputs' ``prefixes`` are columns, their ``keys()``
(``network << 6 | length``) are concatenated, :func:`first_seen_rows`
numbers them as a dict filled in arrival order would, and one
``bincount`` adds each row's volumes in input order — the sums of the
per-entry fold this replaced, bit for bit.

Alignment is by grid cell, which *trusts monitor clocks*: a monitor
whose clock drifts past a slot boundary silently mis-bins its traffic.
The collector-side check is a :class:`LinkMerge`'s skew estimate: it
keeps each monitor's per-cell byte totals as append-only columns and
scores every slot lag against the anchor run in one array pass, so a
query does not walk the link's history in Python. :func:`merge_runs`
raises a :class:`~repro.errors.ClockSkewWarning` (and records the
estimate on the returned :class:`MergedRun`) when a run's totals line
up better one or more slots away from where its timestamps put them.
"""

from __future__ import annotations

import math
import warnings
from array import array
from typing import Hashable, Iterator, Sequence

import numpy as np

from repro.distributed.framing import grid_cell, on_grid
from repro.distributed.summary import SlotSummary
from repro.errors import (
    ClassificationError,
    ClockSkewWarning,
    ServiceProtocolError,
)
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


def first_seen_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct values of ``keys`` in first-seen order.

    Returns ``(rows, firsts)``: the row of every entry, and per row the
    position of the entry that introduced it — the numbering a dict
    filled in arrival order hands out. Each key is packed with its
    position into one distinct int64, so one plain sort puts equal keys
    together, earliest first, without a stable sort. The stable sort is
    kept for keys spread too wide to pack, which prefix keys
    (``network << 6 | length``, below 2**38) are only when one call
    numbers more than 2**25 entries: a guard, not a hot path.
    """
    bits = max(keys.size - 1, 0).bit_length()  # wide enough for a position
    low = int(keys.min()) if keys.size else 0
    if keys.size and int(keys.max()) - low >= 1 << (63 - bits):
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]
    else:
        packed = np.sort((keys - low) << bits | np.arange(keys.size))
        order, ranked = packed & ((1 << bits) - 1), packed >> bits
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
    merged = head._derived(
        slot=head.slot if slot is None else slot,
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

    A ``list[SlotSummary]`` whose ``skew_estimate`` maps each input
    run's index to its estimated clock offset in seconds (``0.0`` when
    the run aligns, or when too little overlap exists to tell).
    """

    skew_estimate: dict[int, float]


#: The slot lags the skew estimator scores, in the order it scans them.
_LAGS = np.arange(-MAX_SKEW_SLOTS, MAX_SKEW_SLOTS + 1)


def _skew_of_columns(
    totals: Sequence[tuple[np.ndarray, np.ndarray]], grid: float
) -> dict[int, float]:
    """Estimate each monitor's clock offset from per-cell byte totals.

    ``totals[i]`` is monitor ``i``'s ``(cells, bytes)`` columns, cells
    ascending (what a :class:`LinkMerge` keeps per monitor); each run's
    lags are scored in one array pass. The longest run (the first of
    equally long ones) anchors the comparison. For every other run,
    the per-cell byte totals are correlated against the anchor's at
    slot lags up to :data:`MAX_SKEW_SLOTS` either way, scanned from the
    most negative up, a later lag winning only on a strictly higher r;
    a run whose totals fit decisively better at a nonzero lag — beating
    the as-reported alignment by :data:`SKEW_MARGIN` of Pearson r,
    above the :data:`SKEW_MIN_CORRELATION` floor, *and* statistically
    significant for its overlap size (:data:`SKEW_MIN_T_STATISTIC`) —
    is estimated to be skewed by that many slots. Positive means the
    run's clock reads *ahead* (its traffic lands in later cells than it
    occurred in). A lag with fewer than :data:`MIN_SKEW_OVERLAP`
    comparable cells, or with constant totals on either side, is no
    evidence, and a run without a decisive fit estimates ``0.0``:
    absence of evidence is not skew. The estimator presumes the runs
    watch the *same* link (taps of one traffic mix); monitors of
    unrelated links have uncorrelated totals at every lag, and the
    significance floor keeps them from chance verdicts.
    """
    estimates = {index: 0.0 for index in range(len(totals))}
    if len(totals) < 2:
        return estimates
    anchor_index = max(range(len(totals)), key=lambda i: totals[i][0].size)
    anchor_cells, anchor_sent = totals[anchor_index]
    zero = MAX_SKEW_SLOTS  # the row of the as-reported alignment
    t_squared = SKEW_MIN_T_STATISTIC**2
    for index, (cells, sent) in enumerate(totals):
        if index == anchor_index or not cells.size:
            continue
        # row per lag: anchor[c] against other[c + lag], where it exists
        wanted = anchor_cells + _LAGS[:, None]
        at = np.minimum(np.searchsorted(cells, wanted), cells.size - 1)
        hit = cells[at] == wanted
        count = hit.sum(axis=1)
        scored = count >= MIN_SKEW_OVERLAP
        sides = [np.broadcast_to(anchor_sent, hit.shape), sent[at]]
        for side, values in enumerate(sides):
            low = np.where(hit, values, np.inf).min(axis=1)
            scored &= low < np.where(hit, values, -np.inf).max(axis=1)
            mean = np.where(hit, values, 0).sum(axis=1) / np.maximum(count, 1)
            sides[side] = np.where(hit, values - mean[:, None], 0.0)
        left, right = sides
        with np.errstate(divide="ignore", invalid="ignore"):
            r = (left * right).sum(axis=1) / np.sqrt(
                (left * left).sum(axis=1) * (right * right).sum(axis=1)
            )
        r = np.clip(r, -1.0, 1.0)  # as np.corrcoef does
        best = zero if scored[zero] else None
        for row in np.flatnonzero(scored):  # in the scan order
            if row != zero and (best is None or r[row] > r[best]):
                best = row
        if best is None or best == zero:
            continue
        floor = max(r[zero], 0.0) if scored[zero] else 0.0
        # the r below which count[best] points cannot clear the t floor
        significant = math.sqrt(t_squared / (t_squared + count[best] - 2))
        if (
            r[best] >= SKEW_MIN_CORRELATION
            and r[best] >= significant
            and r[best] >= floor + SKEW_MARGIN
        ):
            # other[c + lag] matches anchor[c]: the run's totals sit
            # `lag` cells later than the traffic, so its clock is ahead
            estimates[index] = int(_LAGS[best]) * grid
    return estimates


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


class LinkMerge:
    """One link's merge: monitor summaries in, sealed merged slots out.

    Each attached monitor has a *watermark*, the highest cell it has
    reported. The *frontier* is the lowest watermark among attached
    monitors — one that has sent nothing holds it back — or, with none
    attached, the highest pending cell. :meth:`seal` takes every cell
    at or below it, in cell order: the summaries its monitors sent,
    merged in the order the monitors first attached (whichever frame
    came first) and numbered from the first cell sealed; with
    ``fill_gaps``, a cell no monitor covered seals as a
    :func:`gap_summary`. A monitor is any hashable name: a live link's
    are the names monitors greet with, :func:`merge_runs`' are run
    indices.

    The skew estimate's input is every accepted summary's total bytes:
    per monitor an int64 cell and a float64 bytes column, appended to
    (its accepted cells strictly increase) — 16 B per monitor per cell,
    for the link's whole life.
    """

    def __init__(self, k: int | None = None, fill_gaps: bool = True) -> None:
        self.k = k
        self.fill_gaps = fill_gaps
        self.slot_seconds: float | None = None
        #: The cell merged slot 0 covers.
        self.first_cell: int | None = None
        #: The lowest cell not yet sealed; everything below is history.
        self.next_cell: int | None = None
        #: Unsealed cells: the one summary each monitor sent for it.
        self.pending: dict[int, dict[Hashable, SlotSummary]] = {}
        self._watermark: dict[Hashable, int] = {}
        self._active: set[Hashable] = set()
        #: Per monitor, in first-attach order, its accepted bytes per
        #: cell — the skew estimator's input.
        self._totals: dict[Hashable, tuple[array, array]] = {}
        #: Lowest and highest cell the link has held. On a gap-filling
        #: link held cells lie at most MAX_GAP_CELLS apart, so a cell is
        #: that near one of them when it is that near the span.
        self._span: tuple[int, int] | None = None

    def attach(self, monitor: Hashable) -> int | None:
        """Register a (re)connecting monitor; returns its resume cell.

        Attaching an attached name is a protocol error — the first
        holder still gates the frontier. A *re*attach backfills the
        monitor's watermark to just below the sealed frontier, so a
        returning monitor never stalls cells that are already history.
        """
        if monitor in self._active:
            raise ServiceProtocolError(
                f"monitor {monitor!r} is already attached to this link"
            )
        self._active.add(monitor)
        self._totals.setdefault(monitor, (array("q"), array("d")))
        if self.next_cell is not None:
            floor = self.next_cell - 1
            current = self._watermark.get(monitor, floor)
            self._watermark[monitor] = max(current, floor)
        return self.next_cell

    def detach(self, monitor: Hashable) -> None:
        """Stop ``monitor`` gating the frontier (none left: seal all)."""
        self._active.discard(monitor)

    def add(self, monitor: Hashable, summary: SlotSummary) -> tuple[int, str]:
        """Accept (or drop as stale) one summary from ``monitor``.

        Returns ``(cell, status)``: ``"ok"`` when the summary joined
        the pending merge, ``"stale"`` when it landed at or below sealed
        history, or at or below a cell this monitor already sent, and
        was dropped. A summary on another slot width, off the absolute
        grid, off the interval its cell's pending summaries cover, 2**62
        cells or more from cell 0 or, when gaps are filled, farther than
        :data:`MAX_GAP_CELLS` from every cell the link holds is refused
        with a :class:`~repro.errors.ClassificationError`. Neither a
        stale nor a refused summary changes any state.
        """
        seconds = self.slot_seconds or summary.slot_seconds
        if summary.slot_seconds != seconds:
            raise ClassificationError(
                f"monitor {monitor!r} streams a {summary.slot_seconds}s "
                f"grid into a link running {seconds}s slots"
            )
        cell = grid_cell(summary.start, seconds)
        watermark = self._watermark.get(monitor)
        if (self.next_cell is not None and cell < self.next_cell) or (
            watermark is not None and cell <= watermark
        ):
            return cell, "stale"
        held = self.pending.get(cell)
        if held:
            # merge_summaries demands equal starts within a cell
            start = next(iter(held.values())).start
            aligned = summary.start == start
        else:
            start = cell * seconds
            aligned = on_grid(summary.start, seconds)
        if not aligned:
            raise misaligned(summary, start, seconds)
        if self.fill_gaps and self._span is not None:
            near = min(max(cell, self._span[0]), self._span[1])
            if abs(cell - near) > MAX_GAP_CELLS:
                raise ClassificationError(
                    f"grid cell {cell} is {abs(cell - near)} cells from "
                    f"covered cell {near}; gap filling bridges at most "
                    f"{MAX_GAP_CELLS}"
                )
        if not -(1 << 62) < cell < 1 << 62:  # int64 columns, lags and all
            raise ClassificationError(f"grid cell {cell} is out of range")
        self.slot_seconds = seconds
        self._hold(cell)
        self.pending.setdefault(cell, {})[monitor] = summary
        self._watermark[monitor] = cell
        cells, sent = self._totals.setdefault(
            monitor, (array("q"), array("d"))
        )
        cells.append(cell)
        sent.append(summary.total_bytes)
        return cell, "ok"

    def _hold(self, cell: int) -> None:
        low, high = self._span or (cell, cell)
        self._span = (min(low, cell), max(high, cell))

    def _frontier(self) -> int | None:
        """The highest cell guaranteed complete, or None to hold."""
        if self._active:
            marks = [self._watermark.get(name) for name in self._active]
            return None if None in marks else min(marks)
        return max(self.pending) if self.pending else None

    def seal(self) -> Iterator[SlotSummary]:
        """Seal every cell at or below the frontier, in cell order.

        Lazy: a cell leaves :attr:`pending` as its merged slot is
        yielded, so a consumer that fails on one slot leaves the cells
        after it pending for the next call.
        """
        frontier = self._frontier()
        if frontier is None:
            return
        if self.next_cell is None:
            self.first_cell = self.next_cell = min(self.pending)
        elif frontier < self.next_cell:
            return  # nothing new to seal
        if self.fill_gaps:
            cells = range(self.next_cell, frontier + 1)
        else:
            cells = sorted(cell for cell in self.pending if cell <= frontier)
        for cell in cells:
            self.next_cell = cell + 1
            held = self.pending.pop(cell, None)
            if held is None:
                yield gap_summary(cell, self.first_cell, self.slot_seconds)
                continue
            yield merge_summaries(
                [held[name] for name in self._totals if name in held],
                k=self.k,
                slot=cell - self.first_cell,
            )
        self.next_cell = max(self.next_cell, frontier + 1)

    def restore(self, merged: SlotSummary) -> None:
        """Take one checkpointed merged slot back as sealed history.

        Merged slots carry ``slot = cell - first_cell``, so the link's
        origin is recoverable from any of them; the next cell to seal
        is the one after it.
        """
        if self.slot_seconds is None:
            self.slot_seconds = merged.slot_seconds
        cell = grid_cell(merged.start, self.slot_seconds)
        if self.first_cell is None:
            self.first_cell = cell - merged.slot
        self.next_cell = cell + 1
        self._hold(cell)

    def skew_estimate(self) -> dict[Hashable, float]:
        """Per-monitor clock-skew estimate over accepted summaries."""
        if self.slot_seconds is None:  # nothing accepted yet
            return dict.fromkeys(self._totals, 0.0)
        columns = [
            (np.array(cells), np.array(sent))
            for cells, sent in self._totals.values()
        ]
        estimates = _skew_of_columns(columns, self.slot_seconds)
        return dict(zip(self._totals, estimates.values()))


def merge_runs(
    runs: Sequence[Sequence[SlotSummary]],
    k: int | None = None,
    fill_gaps: bool = False,
    check_skew: bool = True,
) -> MergedRun:
    """Align and merge whole monitor runs, slot by slot.

    The runs are a :class:`LinkMerge`'s monitors, one per run index:
    attached in run order, given every summary in (grid cell, run)
    order, then detached — the seal a live link reaches with the same
    summaries. Alignment is by *absolute* position on the slot grid
    (the slot's start time), not by each monitor's local slot counter:
    a monitor that came up three slots late still merges against the
    interval it actually measured. Returns merged summaries for the
    union of intervals any monitor covered, in time order, renumbered
    on the shared grid from the earliest merged interval. Monitors
    absent from an interval contribute nothing to it. The runs must
    share one slot grid, on whole multiples of the slot width; a run
    with two summaries for one cell is refused.

    ``fill_gaps`` additionally emits an *empty* merged slot for every
    grid cell between the first and last covered interval that no
    monitor reported — the silent-link slot a single monitor would
    have observed — so downstream classification sees a contiguous
    slot sequence. Covered cells farther apart than
    :data:`MAX_GAP_CELLS` are refused then.

    The result is a :class:`MergedRun` carrying a per-run clock-skew
    estimate; a :class:`~repro.errors.ClockSkewWarning` is emitted for
    any run whose totals align a full slot (or more) away from its
    reported timestamps. ``check_skew=False`` skips the estimate —
    right when the runs share one clock by construction (shard workers
    on a single host), where per-run totals are uncorrelated because
    the flows, not the packets, were partitioned.
    """
    link = LinkMerge(k=k, fill_gaps=fill_gaps)
    for index in range(len(runs)):
        link.attach(index)
    arrivals = sorted(
        ((index, one) for index, run in enumerate(runs) for one in run),
        key=lambda pair: grid_cell(pair[1].start, pair[1].slot_seconds),
    )
    for index, summary in arrivals:
        cell, status = link.add(index, summary)
        if status == "stale":
            raise ClassificationError(
                f"monitor run {index} has two summaries for grid cell {cell}"
            )
    for index in range(len(runs)):
        link.detach(index)
    merged = MergedRun(link.seal())
    if not merged:
        raise ClassificationError("no summaries to merge")
    merged.skew_estimate = dict.fromkeys(range(len(runs)), 0.0)
    if check_skew:
        merged.skew_estimate = link.skew_estimate()
    for index, offset in merged.skew_estimate.items():
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
    return merged


__all__ = [
    "LinkMerge",
    "MergedRun",
    "gap_summary",
    "merge_runs",
    "merge_summaries",
    "misaligned",
]
