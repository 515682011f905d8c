"""Full-table admission: the production tournament equals the plain one.

:class:`~repro.sketches.array_tables.ArraySpaceSaving` sorts only the
newcomers heavier than the table minimum; ``tests/oracles.py`` keeps
the tournament that sorts every newcomer. Fed the same batches, the two
must return the same :class:`~repro.sketches.array_tables.BatchUpdate`
and hold the same arrays after every batch, bit for bit — with weights
drawn from a few values (ties everywhere, the stable tie-break is under
test), zero weights, tables of 1 to 16 slots, and batches both larger
and smaller than the table.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import SortingSpaceSaving
from repro.sketches.array_tables import ArraySpaceSaving

#: Weight vocabularies: few distinct values (ties, zeros), non-dyadic
#: values whose sums round, and a wide continuous range.
WEIGHTS = st.one_of(
    st.just(st.sampled_from([0.0, 1.0, 2.0])),
    st.just(st.sampled_from([0.0, 0.1, 0.5, 3.7, 7.25])),
    st.just(st.floats(0.0, 1e6, allow_nan=False)),
)


@st.composite
def runs(draw):
    """``(capacity, batches)``; a batch is unique keys in first-traffic
    order with their weights, plus whether to pass that order apart."""
    capacity = draw(st.integers(1, 16))
    weights = draw(WEIGHTS)
    batch = st.tuples(
        st.lists(
            st.tuples(st.integers(0, 63), weights),
            min_size=1,
            max_size=48,
            unique_by=lambda offer: offer[0],
        ),
        st.booleans(),
    )
    return capacity, draw(st.lists(batch, min_size=1, max_size=8))


def _arguments(offers, sorted_keys):
    """``update_batch`` arguments for ``offers`` (first-traffic order):
    keys as given with no order, or sorted with the order apart."""
    keys = np.array([key for key, _ in offers], dtype=np.int64)
    weights = np.array([weight for _, weight in offers])
    if not sorted_keys:
        return keys, weights, None
    rank = np.argsort(keys)
    return keys[rank], weights[rank], np.argsort(rank)


def _assert_same(tables, batches, fields):
    production, oracle = tables
    for offers, sorted_keys in batches:
        keys, weights, order = _arguments(offers, sorted_keys)
        got = production.update_batch(keys, weights, order)
        want = oracle.update_batch(keys, weights, order)
        for name in got._fields:
            np.testing.assert_array_equal(
                getattr(got, name), getattr(want, name), err_msg=name
            )
        for name in fields:
            np.testing.assert_array_equal(
                getattr(production, name), getattr(oracle, name), name
            )
        assert len(production) == len(oracle)
        assert production.total_weight == oracle.total_weight


@settings(max_examples=300, deadline=None)
@given(run=runs())
def test_space_saving_matches_full_sort(run):
    capacity, batches = run
    tables = (ArraySpaceSaving(capacity), SortingSpaceSaving(capacity))
    _assert_same(tables, batches, ("key", "count", "error"))

