"""An offline merge and a live link are one merge, in any arrival order.

``merge_runs`` (``repro merge``, a fleet's collector) and the daemon's
``LiveLink`` both seal through one ``LinkMerge``. Over monitor runs
with skipped cells, monitors that leave early, gap filling on and off
and a re-truncating ``k``, a link fed the same summaries in any
interleaving that keeps each monitor's own cells ascending seals the
offline merge's slots — cells, slot numbers, prefixes, volumes bit for
bit, residuals and sample rates — and estimates the same clock skews,
keyed by monitor name where the offline merge keys them by run index.
The socket tests in ``tests/distributed/test_service.py`` pin only the
round-robin order.
"""

import warnings

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.distributed import LiveLink, SlotSummary, merge_runs
from repro.distributed.framing import grid_cell
from repro.errors import ClockSkewWarning
from repro.net.prefix import Prefix

SLOT_SECONDS = 60.0
CELLS = 10
POOL = [Prefix((10 << 24) | (i << 16), 16) for i in range(6)]
#: Never zero: a link's first slot must carry bytes to be classified.
VOLUME = st.floats(1.0, 1e12)


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
                sample_rate=draw(st.sampled_from([1.0, 10.0, 50.0])),
            )
        )
    return run


def sealed_fields(summary):
    return (
        grid_cell(summary.start, summary.slot_seconds),
        summary.slot,
        summary.prefixes.keys().tolist(),
        summary.volumes.tobytes(),
        summary.residual_bytes,
        summary.sample_rate,
    )


class TestLiveEqualsOffline:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        fill_gaps=st.booleans(),
        k=st.sampled_from([None, 2]),
    )
    def test_any_interleaving_seals_the_offline_merge(
        self, data, fill_gaps, k
    ):
        count = data.draw(st.integers(1, 4))
        names = [f"mon-{index}" for index in range(count)]
        runs = [data.draw(monitor_run(name)) for name in names]
        assume(any(runs))
        # a monitor that leaves early detaches after its last summary
        # (at once, if it has none); the rest detach at the end
        leaves_early = [data.draw(st.booleans()) for _ in names]
        turns = data.draw(
            st.permutations(
                [index for index, run in enumerate(runs) for _ in run]
            )
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClockSkewWarning)
            offline = merge_runs(runs, k=k, fill_gaps=fill_gaps)

        sealed = []
        link = LiveLink("l", k=k, fill_gaps=fill_gaps, on_seal=sealed.append)
        for name in names:
            link.attach(name)
        unsent = [list(reversed(run)) for run in runs]

        def leave_if_done(index):
            if leaves_early[index] and not unsent[index]:
                link.detach(names[index])

        for index in range(len(names)):
            leave_if_done(index)
        for index in turns:
            summary = unsent[index].pop()
            assert link.add_summary(names[index], summary)[1] == "ok"
            leave_if_done(index)
        for name in names:
            link.detach(name)

        assert [sealed_fields(s) for s in sealed] == [
            sealed_fields(s) for s in offline
        ]
        assert link.report()["skew_estimate"] == {
            names[index]: offset
            for index, offset in offline.skew_estimate.items()
        }
