"""The oracles the suite holds production code to.

``make_backend`` only ever builds the production class
(:class:`~repro.pipeline.ArraySketchAggregation` over an array table);
the suite holds it to the dict-and-heap reference summaries, wrapped in
the one scalar :class:`~repro.pipeline.SketchAggregation`. This module
is the one place a test gets that twin from (``tests/`` is on the path
through ``conftest.py``: ``from oracles import scalar_backend``).

It also keeps the full-table admission tournaments in their plain form
(:class:`SortingSpaceSaving`, :class:`SortingCountMin`): every newcomer
sorted by weight, every one paired against the table. The production
tables sort only the newcomers that can win and must agree with these
bit for bit.

Longest-prefix match has its plainest form here too,
:func:`longest_match`: a scan of every prefix. The RIB's dict probes
and the compiled LPM's segment arrays are both held to it.

The batch :class:`~repro.core.engine.ClassificationEngine` is the
oracle of the streaming classifier: :func:`assert_stream_matches_batch`
holds every event a :class:`~repro.pipeline.StreamingPipeline` emits to
the batch result's column for that slot.
"""

import numpy as np

from repro.pipeline import SketchAggregation
from repro.sketches import (
    CountMinCandidates,
    MisraGries,
    SampleAndHold,
    SpaceSaving,
)
from repro.sketches.array_tables import ArrayCountMin, ArraySpaceSaving

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


def scalar_backend(name, capacity, seed=0, sampling_probability=1e-5):
    """The scalar twin of ``make_backend(name, capacity, seed)``: the
    same summary, the same sizing and seeding, fed key by key."""
    if name == "space-saving":
        sketch = SpaceSaving(capacity)
    elif name == "misra-gries":
        sketch = MisraGries(capacity)
    elif name == "count-min":
        # the factory's sizing, spelled out: a change there has to
        # show up as a failing array == scalar property, not follow
        sketch = CountMinCandidates(
            capacity, width=max(16, 4 * capacity), depth=4, seed=seed
        )
    else:
        assert name == "sample-hold", name
        sketch = SampleAndHold(
            sampling_probability, seed=seed, max_entries=capacity
        )
    return SketchAggregation(sketch, capacity, name)


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


class SortingCountMin(ArrayCountMin):
    """:class:`ArrayCountMin` whose estimate tournament sorts every
    newcomer and pairs up to ``capacity`` of them with the table."""

    def _admit_newcomers(self, slots, keys, estimates, rest):
        contenders = rest[np.argsort(-estimates[rest], kind="stable")]
        pairs = min(contenders.size, self.capacity)
        contenders = contenders[:pairs]
        candidates = np.lexsort((self.key, self.count))[:pairs]
        beat = estimates[contenders] > self.count[candidates]
        admit = contenders[beat]
        victims = candidates[beat]
        if victims.size == 0:
            return _EMPTY_SLOTS
        self.key[victims] = keys[admit]
        self.count[victims] = estimates[admit]
        slots[admit] = victims
        return victims
