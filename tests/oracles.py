"""The scalar oracle backends, by sketch name.

``make_backend`` only ever builds the production class
(:class:`~repro.pipeline.ArraySketchAggregation` over an array table);
the suite holds it to the dict-and-heap reference summaries, wrapped in
the one scalar :class:`~repro.pipeline.SketchAggregation`. This module
is the one place a test gets that twin from (``tests/`` is on the path
through ``conftest.py``: ``from oracles import scalar_backend``).
"""

from repro.pipeline import SketchAggregation
from repro.sketches import (
    CountMinCandidates,
    MisraGries,
    SampleAndHold,
    SpaceSaving,
)


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
