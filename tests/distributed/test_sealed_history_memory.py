"""What a sealed cell leaves behind in a live collector's memory.

A daemon keeps each sealed slot as the JSON text of its elephants (what
a reply carries) and leaves the merged summary to the checkpoint WAL.
Held here: the bytes a sealed cell retains, over cells shaped like the
``collector-live`` benchmark's — two monitors, 1,024-entry summaries,
~80 elephants, a tail that churns through a bounded prefix pool.
"""

import gc
import tracemalloc

import numpy as np

from repro.distributed import CheckpointStore, SlotSummary
from repro.distributed.framing import DEFAULT_LINK
from repro.distributed.service import LiveCollector
from repro.net.prefix import PrefixColumns

SLOT_SECONDS = 60.0
ENTRIES = 1024
ELEPHANTS = 80
MONITORS = ("mon-a", "mon-b")
#: Cells sealed before counting: the tail's window has then slid once
#: through the whole pool, so every flow row the classifier will ever
#: hold exists already.
WARM_CELLS = 80
COUNTED_CELLS = 200
#: Retained bytes a sealed cell may cost. It is ~4.4 KB, most of it the
#: slot's reply text; a daemon that also held each merged summary
#: (~24 KB) and the slot's entries as dicts (~20 KB) fails the test.
BUDGET_BYTES = 8 * 1024


def cell_summaries(cell, rng, pool):
    """Both monitors' summaries for one cell, built on demand."""
    tail = ENTRIES - ELEPHANTS
    churn = len(pool) - ELEPHANTS
    heavy = 4e7 * 10.0 ** -np.linspace(0.0, 1.0, ELEPHANTS)
    summaries = []
    for index, monitor in enumerate(MONITORS):
        start = (cell * 61 + index * (churn // len(MONITORS))) % churn
        window = ELEPHANTS + (start + np.arange(tail)) % churn
        rows = np.concatenate((np.arange(ELEPHANTS), window))
        volumes = np.concatenate(
            (
                heavy * rng.uniform(0.7, 1.3, ELEPHANTS),
                rng.uniform(2e4, 4e5, tail),
            )
        )
        summaries.append(
            SlotSummary(
                slot=cell,
                start=cell * SLOT_SECONDS,
                slot_seconds=SLOT_SECONDS,
                prefixes=pool[rows],
                volumes=volumes,
                residual_bytes=float(rng.uniform(5e7, 1e8)),
                monitor=monitor,
            )
        )
    return summaries


def test_a_sealed_cell_retains_at_most_its_budget(tmp_path):
    rng = np.random.default_rng(40)
    networks = (10 << 24) + (np.arange(4 * ENTRIES) << 8)
    pool = PrefixColumns(networks, np.full(networks.size, 24))
    store = CheckpointStore(tmp_path, fsync=False)
    collector = LiveCollector(k=ENTRIES, checkpoint=store)
    for monitor in MONITORS:
        collector.attach(monitor, DEFAULT_LINK)

    def seal(cells):
        for cell in cells:
            for monitor, summary in zip(
                MONITORS, cell_summaries(cell, rng, pool)
            ):
                collector.add_summary(monitor, DEFAULT_LINK, summary)

    seal(range(WARM_CELLS))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        seal(range(WARM_CELLS, WARM_CELLS + COUNTED_CELLS))
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        store.close()
    link = collector.links[DEFAULT_LINK]
    assert link.slots_sealed == WARM_CELLS + COUNTED_CELLS
    assert store.records == link.slots_sealed
    report = collector.query(since_cell=WARM_CELLS)
    assert ELEPHANTS // 2 < len(report["elephants"]) <= ELEPHANTS
    per_cell = (after - before) / COUNTED_CELLS
    assert per_cell <= BUDGET_BYTES, f"{per_cell:.0f} bytes per sealed cell"
