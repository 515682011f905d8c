"""The oracles the suite holds production code to.

``make_backend`` only ever builds the production class
(:class:`~repro.pipeline.ArraySketchAggregation` over an array table).
The tables' reference semantics live here as dict summaries fed one key
at a time (:class:`SpaceSaving`, :class:`MisraGries`), and
:func:`scalar_backend` wraps one in the bounded backend
:class:`ScalarAggregation`. ``tests/`` is on the path through
``conftest.py``: ``from oracles import scalar_backend``.

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
"""

import numpy as np

from repro.net.prefix import PrefixColumns
from repro.pipeline.backends import AggregationBackend
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


def scalar_backend(name, capacity):
    """The scalar twin of ``make_backend(name, capacity)``: the same
    summary, fed key by key."""
    summaries = {"space-saving": SpaceSaving, "misra-gries": MisraGries}
    return ScalarAggregation(summaries[name](capacity), capacity, name)


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


class MisraGries:
    """Misra–Gries: a newcomer to a full table takes the smallest of
    its weight and the least counter off every counter."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._counters = {}
        self._decrement_total = 0.0

    def __len__(self):
        return len(self._counters)

    def update(self, key, weight):
        if weight == 0:
            return
        counters = self._counters
        if key in counters or len(counters) < self.capacity:
            counters[key] = counters.get(key, 0.0) + weight
            return
        decrement = min(weight, min(counters.values()))
        self._decrement_total += decrement
        for tracked in list(counters):
            counters[tracked] -= decrement
            if counters[tracked] <= 0:
                del counters[tracked]
        remaining = weight - decrement
        if remaining > 0:
            counters[key] = remaining

    def estimate(self, key):
        return self._counters.get(key, 0.0)

    def items(self):
        return dict(self._counters)

    def error_bound(self):
        return self._decrement_total


class ScalarAggregation(AggregationBackend):
    """The bounded backend over a scalar summary: a batch's keys are
    offered in first-traffic order; a held key's bytes pend for the
    slot, the rest (and what a let-go key had pending at batch end) go
    to the residual; at slot close pending keys get rows in order."""

    residual_row = 0

    def __init__(self, sketch, capacity, name):
        super().__init__()
        self.name = name
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
