"""The open-addressing index against a ``dict`` model.

:class:`~repro.hash_index.HashIndex` sits under every candidate table
and under the fixed-length resolver, so its contract is pinned on its
own: interleaved ``insert``/``find``/``clear``/``reserve`` agree with a
plain dict, through collisions and several doublings; a key never
inserted answers ``ABSENT``.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.errors import ClassificationError
from repro.hash_index import ABSENT, HashIndex

# keys drawn to share buckets and probe chains: multiples of every
# table size the machine grows through, the range ends, /32 hosts of
# one /24, and small sequential rows
KEYS = st.one_of(
    st.integers(0, 64),
    st.builds(
        lambda power, factor: factor << power,
        st.integers(3, 12),
        st.integers(0, 1 << 20),
    ),
    st.sampled_from([0, (1 << 32) - 1, (1 << 63) - 1]),
    st.integers(0xC0000200, 0xC00002FF),
    st.integers(0, (1 << 32) - 1),
)
KEY_BATCHES = st.lists(KEYS, max_size=120, unique=True)


def as_keys(keys):
    return np.asarray(keys, dtype=np.int64)


class IndexAgainstDict(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.index = HashIndex()
        self.model = {}
        self.next_value = 0

    @rule(keys=KEY_BATCHES)
    def insert(self, keys):
        values = list(range(self.next_value, self.next_value + len(keys)))
        self.next_value += len(keys)
        self.index.insert(as_keys(keys), as_keys(values))
        self.model.update(zip(keys, values))

    @rule(keys=KEY_BATCHES)
    def find(self, keys):
        expected = [self.model.get(key, ABSENT) for key in keys]
        found = self.index.find(as_keys(keys))
        assert found.dtype == np.int64
        assert found.tolist() == expected

    @rule(entries=st.integers(0, 5000))
    def reserve(self, entries):
        self.index.reserve(entries)

    @precondition(lambda self: self.model)
    @rule()
    def clear(self):
        self.index.clear()
        self.model.clear()

    @invariant()
    def every_entry_is_found(self):
        assert len(self.index) == len(self.model)
        keys = as_keys(list(self.model))
        assert self.index.find(keys).tolist() == list(self.model.values())


IndexAgainstDict.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestIndexAgainstDict = IndexAgainstDict.TestCase


def test_grows_through_many_doublings():
    index = HashIndex()
    keys = np.arange(0, 3 * 20_000, 3, dtype=np.int64)
    for chunk in np.array_split(keys, 7):
        index.insert(chunk, chunk // 3)
    assert len(index) == keys.size
    assert np.array_equal(index.find(keys), keys // 3)
    assert (index.find(keys + 1) == ABSENT).all()


def test_find_on_empty_inputs():
    index = HashIndex()
    assert index.find(np.empty(0, dtype=np.int64)).size == 0
    assert index.find(as_keys([0, 7, (1 << 32) - 1])).tolist() == [ABSENT] * 3
    index.insert(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    assert len(index) == 0


def test_reinserted_key_takes_the_new_value():
    index = HashIndex()
    index.insert(as_keys([5, 9]), as_keys([1, 2]))
    index.insert(as_keys([9]), as_keys([7]))
    assert len(index) == 2
    assert index.find(as_keys([5, 9])).tolist() == [1, 7]


def test_negative_keys_are_absent_and_cannot_be_inserted():
    index = HashIndex(4)
    index.insert(as_keys([0, 1]), as_keys([10, 11]))
    assert index.find(as_keys([-1, -2, 0])).tolist() == [ABSENT, ABSENT, 10]
    with pytest.raises(ClassificationError):
        index.insert(as_keys([3, -1]), as_keys([0, 1]))
    assert len(index) == 2
    assert index.find(as_keys([3])).tolist() == [ABSENT]
