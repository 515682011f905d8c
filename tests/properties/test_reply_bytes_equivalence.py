"""A REPLY spliced from kept JSON texts is ``json.dumps`` of the dicts.

A live link encodes each sealed slot's elephants once, at the seal,
and a REPLY splices those texts in where the ``elephants`` and
``elephants_by_slot`` lists go. Over random links — monitors with
skipped cells, one that leaves early, gap filling on and off, a
re-truncating ``k`` — and any ``since_cell``, the payload equals
``json.dumps`` of the same reply built from dict entries
(``tests/oracles.py::reply_from_dict_entries``), byte for byte.
"""

import json

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import reply_from_dict_entries
from repro.distributed import SlotSummary
from repro.distributed.framing import encode_json
from repro.distributed.service import LiveCollector
from repro.net.prefix import Prefix

SLOT_SECONDS = 60.0
CELLS = 12
POOL = [Prefix((10 << 24) | (i << 16), 16) for i in range(8)]
#: Never zero: a link's first slot must carry bytes to be classified.
VOLUME = st.floats(1.0, 1e12)
#: One name is not ASCII: ``json.dumps`` writes its last letter escaped.
MONITORS = ("mon-a", "mon-é")


@st.composite
def monitor_run(draw, name):
    """One monitor's run over any ascending subset of the cells."""
    cells = draw(st.lists(st.integers(0, CELLS - 1), unique=True))
    run = []
    for cell in sorted(cells):
        prefixes = draw(
            st.lists(st.sampled_from(POOL), min_size=1, unique=True)
        )
        run.append(
            SlotSummary(
                slot=cell,
                start=cell * SLOT_SECONDS,
                slot_seconds=SLOT_SECONDS,
                prefixes=prefixes,
                volumes=np.array([draw(VOLUME) for _ in prefixes]),
                residual_bytes=draw(st.just(0.0) | VOLUME),
                monitor=name,
            )
        )
    return run


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    fill_gaps=st.booleans(),
    k=st.sampled_from([None, 3]),
    leaves_early=st.booleans(),
)
def test_the_reply_is_json_dumps_of_dict_entries(
    data, fill_gaps, k, leaves_early
):
    runs = [data.draw(monitor_run(name)) for name in MONITORS]
    assume(any(runs))
    collector = LiveCollector(k=k, fill_gaps=fill_gaps)
    for name in MONITORS:
        collector.attach(name, "l")
    sealed = []
    collector.link("l").on_seal = sealed.append
    for cell in range(CELLS):
        for name, run in zip(MONITORS, runs):
            for summary in run:
                if round(summary.start / SLOT_SECONDS) == cell:
                    collector.add_summary(name, "l", summary)
        if leaves_early and cell == CELLS // 2:
            collector.detach(MONITORS[1], "l", clean=False)
    if not leaves_early:
        collector.detach(MONITORS[1], "l", clean=True)
    # the first monitor may stay attached: its last cell then waits
    if data.draw(st.booleans()):
        collector.detach(MONITORS[0], "l", clean=True)
    assume(sealed)
    since_cell = data.draw(st.none() | st.integers(0, CELLS + 2))
    payload = encode_json(collector.reply("l", since_cell))
    assert payload == reply_from_dict_entries(
        json.loads(payload), sealed, since_cell
    )
    assert collector.query("l", since_cell) == json.loads(payload)
