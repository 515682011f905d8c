"""The oracles the suite holds production code to.

``make_backend`` only ever builds the production class
(:class:`~repro.pipeline.ArraySketchAggregation` over an array table).
The table's reference semantics live here as a dict summary fed one key
at a time (:class:`SpaceSaving`), and :func:`scalar_backend` wraps it in
the bounded backend :class:`ScalarAggregation`. ``tests/`` is on the
path through ``conftest.py``: ``from oracles import scalar_backend``.

It also keeps Space-Saving's full-table admission tournament in its
plain form (:class:`SortingSpaceSaving`): every newcomer sorted by
weight, every one paired against the table. The production table sorts
only the newcomers that can win and must agree with it bit for bit.

Longest-prefix match has its plainest form here too,
:func:`longest_match`: a scan of every prefix. The RIB's dict probes
and the compiled LPM's segment arrays are both held to it.

The batch :class:`~repro.core.engine.ClassificationEngine` is the
oracle of the streaming classifier: :func:`assert_stream_matches_batch`
holds every event a :class:`~repro.pipeline.StreamingPipeline` emits to
the batch result's column for that slot.

The collector's merge kernels keep their plain forms here as well.
:func:`estimate_skew_from_totals` walks dicts of per-cell totals, one
lag at a time (:func:`lag_correlation`); the production estimator
scores every lag in one array pass over columns, and
:func:`skew_of_dict_totals` feeds it the same dicts. :func:`merge_by_dict`
fills a dict in arrival order and cuts it to ``k`` with a stable sort;
:func:`first_seen_by_dict` is the numbering that dict hands out.

A live link keeps each sealed slot as the JSON text of its elephants
and splices the texts into a REPLY. :func:`reply_from_dict_entries`
builds the same REPLY as the daemon once built every one: each slot's
elephants as dicts, the envelope made of them and one ``json.dumps``.

:func:`hill_estimator` is the classic tail-index estimator the aest
test checks the production estimator's alpha against.
"""

import json
import math
from bisect import bisect_left

import numpy as np

from repro.core.engine import Feature, Scheme
from repro.distributed.collector import MergedSlotSource
from repro.distributed.envelope import elephant_entries, result_envelope
from repro.distributed.framing import grid_cell
from repro.distributed.merge import (
    MAX_SKEW_SLOTS,
    MIN_SKEW_OVERLAP,
    SKEW_MARGIN,
    SKEW_MIN_CORRELATION,
    SKEW_MIN_T_STATISTIC,
    _skew_of_columns,
)
from repro.errors import InsufficientDataError
from repro.net.prefix import PrefixColumns
from repro.pipeline.backends import AggregationBackend
from repro.pipeline.engine import StreamingPipeline
from repro.sketches.array_tables import ArraySpaceSaving

_EMPTY_SLOTS = np.empty(0, dtype=np.int64)


def longest_match(prefixes, address):
    """The longest of ``prefixes`` that covers ``address``, or ``None``."""
    covering = [p for p in prefixes if p.contains_address(address)]
    return max(covering, key=lambda prefix: prefix.length, default=None)


def assert_stream_matches_batch(pipeline, batch):
    """Drain ``pipeline.events()`` and hold each event to ``batch``.

    Rows are matched by prefix: a streamed row carries the batch row's
    rate and verdict for the slot, and a flow the stream has not seen
    yet carries no traffic and is no elephant in batch. Each slot's
    raw and smoothed thresholds are the batch ones bit for bit, and so
    are the fallback slots, the label and the EWMA weight.
    """
    thresholds = batch.thresholds
    assert pipeline.label == batch.label
    assert pipeline.config.alpha == thresholds.alpha
    row_of = {prefix: row for row, prefix in enumerate(batch.matrix.prefixes)}
    slot = -1
    for slot, event in enumerate(pipeline.events()):
        # a frame's population may have grown past it (frames share it)
        population = event.frame.population[: event.frame.rates.size]
        rows = np.array([row_of[p] for p in population], dtype=np.int64)
        seen = np.zeros(batch.matrix.num_flows, dtype=bool)
        seen[rows] = True
        rates = batch.matrix.rates[:, slot]
        mask = batch.elephant_mask[:, slot]
        assert np.array_equal(event.frame.rates, rates[rows]), slot
        verdict = event.verdict
        assert np.array_equal(verdict.elephant_mask[: rows.size], mask[rows])
        assert not rates[~seen].any() and not mask[~seen].any(), slot
        assert verdict.thresholds.raw == thresholds.raw[slot]
        assert verdict.thresholds.smoothed == thresholds.smoothed[slot]
        fallback = slot in thresholds.fallback_slots
        assert verdict.thresholds.fallback_used == fallback, slot
    assert slot + 1 == batch.matrix.num_slots


def scalar_backend(capacity):
    """The scalar twin of ``make_backend("space-saving", capacity)``:
    the same summary, fed key by key."""
    return ScalarAggregation(SpaceSaving(capacity), capacity)


def _smallest(counts):
    """The key of the ``(count, key)``-smallest entry of ``counts``."""
    return min(counts, key=lambda key: (counts[key], key))


class SpaceSaving:
    """Space-Saving (Metwally et al.): a newcomer to a full table
    evicts the smallest entry and inherits its count as error."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.total_weight = 0.0
        self._counts = {}
        self._errors = {}

    def __len__(self):
        return len(self._counts)

    def update(self, key, weight):
        if weight == 0:
            return
        self.total_weight += weight
        if key not in self._counts:
            floor = 0.0
            if len(self._counts) == self.capacity:
                victim = _smallest(self._counts)
                floor = self._counts.pop(victim)
                del self._errors[victim]
            self._counts[key] = floor
            self._errors[key] = floor
        self._counts[key] += weight

    def estimate(self, key):
        return self._counts.get(key, 0.0)

    def guaranteed(self, key):
        return self.estimate(key) - self._errors.get(key, 0.0)


class ScalarAggregation(AggregationBackend):
    """The bounded backend over a scalar summary: a batch's keys are
    offered in first-traffic order; a held key's bytes pend for the
    slot, the rest (and what a let-go key had pending at batch end) go
    to the residual; at slot close pending keys get rows in order."""

    name = "space-saving"
    residual_row = 0

    def __init__(self, sketch, capacity):
        super().__init__()
        self.capacity = capacity
        self._sketch = sketch
        self._row_of = {}
        #: key -> [bytes this slot, prefix], in first-pending order
        self._pending = {}
        self._residual = 0.0

    @property
    def tracked_flows(self):
        return len(self._sketch)

    def accumulate(self, keys, sizes, timestamps, table):
        if keys.size == 0:
            return
        unique, first, inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
        weights = np.bincount(inverse, weights=sizes)
        for i in np.argsort(first).tolist():
            key, weight = int(unique[i]), float(weights[i])
            self._sketch.update(key, weight)
            if self._sketch.estimate(key) > 0.0:
                self._pending.setdefault(key, [0.0, table[key]])[0] += weight
            else:
                self._residual += weight
        for key in list(self._pending):
            if self._sketch.estimate(key) <= 0.0:
                self._residual += self._pending.pop(key)[0]
        self.peak_tracked = max(self.peak_tracked, self.tracked_flows)

    def close_slot(self):
        for key, (_, prefix) in self._pending.items():
            if key not in self._row_of:
                self._row_of[key] = len(self.prefixes)
                self.population.append(PrefixColumns.of([prefix]))
        vector = np.zeros(len(self.prefixes))
        for key, (volume, _) in self._pending.items():
            vector[self._row_of[key]] += volume
        vector[self.residual_row] += self._residual
        self._pending, self._residual = {}, 0.0
        self.slots_closed += 1
        return vector


class SortingSpaceSaving(ArraySpaceSaving):
    """:class:`ArraySpaceSaving` whose merge tournament sorts every
    newcomer by weight and reads the heaviest loser off that order."""

    def _admit_newcomers(self, slots, keys, weights, rest):
        victims = _EMPTY_SLOTS
        losers = _EMPTY_SLOTS
        rank = np.lexsort((self.key, self.count))
        floor = float(self.count[rank[0]])
        head = rest[:-1]
        if head.size:
            by_weight = head[np.argsort(-weights[head], kind="stable")]
            pairs = min(by_weight.size, self.capacity)
            contenders = by_weight[:pairs]
            smallest = rank[:pairs]
            beat = weights[contenders] > self.count[smallest]
            admit = contenders[beat]
            victims = smallest[beat]
            losers = by_weight[admit.size :]
            if admit.size:
                bound = float(self.count[victims[-1]])
                if losers.size:
                    bound = max(bound, float(weights[losers[0]]))
                self.key[victims] = keys[admit]
                self.count[victims] = weights[admit] + bound
                self.error[victims] = bound
                slots[admit] = victims
        last_offer = int(rest[-1])
        min_slot = int(np.lexsort((self.key, self.count))[0])
        minimum = float(self.count[min_slot])
        self.key[min_slot] = int(keys[last_offer])
        self.count[min_slot] = minimum + float(weights[last_offer])
        self.error[min_slot] = minimum
        slots[last_offer] = min_slot
        if losers.size:
            level = floor + float(weights[losers[0]])
            low = self.count < level
            if low.any():
                self.error[low] += level - self.count[low]
                self.count[low] = level
        if victims.size:
            if min_slot in victims:
                return victims
            return np.append(victims, min_slot)
        return np.asarray([min_slot], dtype=np.int64)


def lag_correlation(reference, other, lag):
    """Pearson r (and sample size) of reference[c] vs other[c + lag].

    ``None`` below :data:`MIN_SKEW_OVERLAP` overlapping cells, or when
    either side is constant. Constant means every value equal, not
    ``std() == 0.0``: the rounded mean of a run of 0.1s is not 0.1, so
    its std is not 0, and two such flat runs would score r = 1 at a lag.
    """
    cells = [cell for cell in reference if cell + lag in other]
    if len(cells) < MIN_SKEW_OVERLAP:
        return None
    left = np.array([reference[cell] for cell in cells])
    right = np.array([other[cell + lag] for cell in cells])
    if np.ptp(left) == 0.0 or np.ptp(right) == 0.0:
        return None
    return float(np.corrcoef(left, right)[0, 1]), len(cells)


def significance_floor(count):
    """The r below which ``count`` points cannot clear the t floor."""
    t_squared = SKEW_MIN_T_STATISTIC**2
    return math.sqrt(t_squared / (t_squared + count - 2))


def estimate_skew_from_totals(totals, grid):
    """The skew estimate of ``repro.distributed.merge.LinkMerge`` as a walk.

    The longest run (the first of equally long ones) anchors; every
    other run is correlated against it lag by lag, ``-MAX_SKEW_SLOTS``
    up, a later lag replacing the best only on a strictly higher r.
    """
    estimates = {index: 0.0 for index in range(len(totals))}
    if len(totals) < 2:
        return estimates
    anchor_index = max(range(len(totals)), key=lambda i: len(totals[i]))
    anchor = totals[anchor_index]
    for index, cells in enumerate(totals):
        if index == anchor_index:
            continue
        aligned = lag_correlation(anchor, cells, 0)
        best_lag, best = 0, aligned
        for lag in range(-MAX_SKEW_SLOTS, MAX_SKEW_SLOTS + 1):
            if lag == 0:
                continue
            score = lag_correlation(anchor, cells, lag)
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
            and correlation >= significance_floor(count)
            and correlation >= floor + SKEW_MARGIN
        ):
            estimates[index] = best_lag * grid
    return estimates


def skew_of_dict_totals(totals, grid):
    """The production estimator over dicts of grid cell -> bytes: each
    run's cells sorted into the columns a ``LinkMerge`` keeps."""
    columns = []
    for run in totals:
        cells = np.fromiter(run, dtype=np.int64, count=len(run))
        order = np.argsort(cells)
        sent = np.fromiter(run.values(), dtype=np.float64, count=len(run))
        columns.append((cells[order], sent[order]))
    return _skew_of_columns(columns, grid)


def first_seen_by_dict(keys):
    """``first_seen_rows`` as a dict filled in arrival order."""
    rows, firsts = {}, []
    for position, key in enumerate(keys):
        if key not in rows:
            rows[key] = len(rows)
            firsts.append(position)
    return [rows[key] for key in keys], firsts


def merge_by_dict(summaries, k=None):
    """``merge_summaries`` as a dict filled in arrival order, then cut
    to ``k`` by a stable sort: ``(keys, volumes, residual_bytes)``."""
    totals = {}
    for one in summaries:
        entries = zip(one.prefixes.keys().tolist(), one.volumes.tolist())
        for key, volume in entries:
            totals[key] = totals.get(key, 0.0) + volume
    keys = np.array(list(totals), dtype=np.int64)
    volumes = np.array(list(totals.values()), dtype=np.float64)
    residual = sum((one.residual_bytes for one in summaries), 0.0)
    if k is not None and keys.size > k:
        order = np.argsort(-volumes, kind="stable")
        keep = np.sort(order[:k])
        residual += float(volumes[order[k:]].sum())
        keys, volumes = keys[keep], volumes[keep]
    return keys, volumes, residual


def reply_from_dict_entries(reply, sealed, since_cell=None):
    """The REPLY payload, built from each slot's elephants as dicts.

    ``sealed`` (a link's merged slots, in order) is classified afresh
    under ``reply``'s spec into :func:`elephant_entries` lists; the
    envelope is :func:`result_envelope` of them, ``elephants_by_slot``
    lists the slots from ``since_cell`` on (every slot, when the cell
    does not continue this history) and the reply's ``since_cell``
    names the first listed slot's cell. ``reply`` (a decoded REPLY)
    gives the key order and the members no elephant decides: the
    link's liveness facts, its monitors and the link names.
    """
    spec = reply["spec"]
    source = MergedSlotSource([], slot_seconds=reply["slot_seconds"])
    pipeline = StreamingPipeline(
        source, scheme=Scheme(spec["scheme"]), feature=Feature(spec["feature"])
    )
    entries = []
    for merged in sealed:
        event = pipeline.observe(source.frame_of(merged))
        entries.append(elephant_entries(event.frame, event.verdict))
    cells = [grid_cell(one.start, one.slot_seconds) for one in sealed]
    first = 0
    if (
        since_cell is not None
        and cells
        and cells[0] <= since_cell <= reply["next_cell"]
    ):
        first = bisect_left(cells, since_cell)
    envelope = result_envelope(
        "query", spec, entries, below_table=pipeline.below_table_slots
    )
    envelope["elephants_by_slot"] = entries[first:]
    envelope["since_cell"] = (
        cells[first] if first < len(cells) else reply["next_cell"]
    )
    return json.dumps({**reply, **envelope}).encode("utf-8")


def hill_estimator(samples, k):
    """Hill's estimator of the tail index from the top ``k`` order stats.

    For ``X`` with ``P(X > x) ~ x^{-alpha}``, returns ``alpha_hat``.
    ``k`` must satisfy ``1 <= k < n`` and the involved samples must be
    positive.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n < 2:
        raise InsufficientDataError("Hill estimator needs >= 2 samples")
    if not 1 <= k < n:
        raise ValueError(f"k={k} outside 1..{n - 1}")
    ordered = np.sort(samples)[::-1]
    top = ordered[:k]
    pivot = ordered[k]
    if pivot <= 0 or np.any(top <= 0):
        raise InsufficientDataError("Hill estimator requires positive samples")
    log_excess = np.log(top / pivot)
    mean_excess = float(log_excess.mean())
    if mean_excess <= 0:
        raise InsufficientDataError("degenerate top-k (all samples equal)")
    return 1.0 / mean_excess
