"""The merge kernels answer as a dict fill and a stable sort did.

``merge_summaries`` numbers entries with one plain sort over packed
``(key, position)`` integers (``first_seen_rows``, held to the dict on
its own in ``tests/distributed/test_merge.py``), and both it and
``SlotSummary.truncated`` build their result without re-checking its
entries. Their plain form is ``tests/oracles.py::merge_by_dict``: a
dict filled in arrival order, cut by a stable sort. Volumes are drawn
from a handful of values, so ties — where a plain sort and a stable one
part ways — are common.
"""

import numpy as np
import oracles
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import SlotSummary, merge_summaries
from repro.net.prefix import Prefix

#: Few values, so equal volumes meet in most merges.
VOLUME = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 1e12]) | st.floats(0, 1e6)
POOL = [Prefix((10 << 24) | (i << 12), 20) for i in range(40)]


@st.composite
def summaries(draw):
    """One cell's summaries from up to four monitors."""
    drawn = []
    for _ in range(draw(st.integers(1, 4))):
        prefixes = draw(st.lists(st.sampled_from(POOL), unique=True))
        drawn.append(
            SlotSummary(
                slot=0,
                start=0.0,
                slot_seconds=60.0,
                prefixes=prefixes,
                volumes=np.array([draw(VOLUME) for _ in prefixes]),
                residual_bytes=draw(VOLUME),
            )
        )
    return drawn


def bits(value):
    return np.float64(value).tobytes()


class TestMergeKernelsEqualTheirOracles:
    @settings(max_examples=300, deadline=None)
    @given(cell=summaries(), k=st.none() | st.integers(0, 12))
    def test_merge_summaries_equals_the_dict_fill(self, cell, k):
        merged = merge_summaries(cell, k=k)
        keys, volumes, residual = oracles.merge_by_dict(cell, k=k)
        assert merged.prefixes.keys().tolist() == keys.tolist()
        assert merged.volumes.tobytes() == volumes.tobytes()
        assert bits(merged.residual_bytes) == bits(residual)

    @settings(max_examples=300, deadline=None)
    @given(cell=summaries(), k=st.integers(0, 12))
    def test_truncated_equals_the_stable_cut(self, cell, k):
        whole = cell[0]
        cut = whole.truncated(k)
        keys, volumes, residual = oracles.merge_by_dict([whole], k=k)
        assert cut.prefixes.keys().tolist() == keys.tolist()
        assert cut.volumes.tobytes() == volumes.tobytes()
        assert bits(cut.residual_bytes) == bits(residual)
