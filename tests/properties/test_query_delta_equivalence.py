"""A stitched query is a full query, whatever happened in between.

One live daemon, two or three monitors, and every way a reader's history
can fall behind or be cut off: publishes from the others, skipped cells
(gap slots, or holes on a link that does not fill them), a monitor
crash and redial, a one-shot poll from an arbitrary cell, and — with a
state directory — the daemon itself stopped and started under its
clients. Whatever the interleaving:

- the report :meth:`MonitorClient.query` puts together from what it
  retained and what it was sent equals, field for field, the reply a
  fresh unqualified :func:`query_service` gets at that moment;
- a ``since_cell`` poll lists exactly the sealed slots at or above the
  cell (a linear scan over the model's cells, not the daemon's
  bisect), and describes the whole link otherwise;
- once every monitor has reported up to one cell, and again at BYE,
  each client's ``elephants_by_slot`` is the offline ``Collector``'s
  answer for the summaries the daemon accepted.
"""

import shutil
import tempfile
import time

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.distributed import Collector, SlotSummary, elephant_entries
from repro.distributed.client import MonitorClient, query_service
from repro.distributed.service import CollectorService, ServiceHandle
from repro.net.prefix import Prefix

SLOT_SECONDS = 10.0
MONITORS = ("mon-a", "mon-b", "mon-c")
FIRST_CELL = 40
#: Cells per run; the last one is kept for the closing barrier.
CELLS = 12


def make_runs():
    """Integer volumes (sums are exact in any order), elephants that
    come and go, every monitor seeing its own part of each cell."""
    rng = np.random.default_rng(19)
    pool = [Prefix((10 << 24) | (row << 16), 16) for row in range(14)]
    runs = []
    for name in MONITORS:
        run = []
        for index in range(CELLS):
            heavy = rng.permutation(5)[: rng.integers(1, 4)]
            light = 5 + rng.permutation(9)[: rng.integers(2, 7)]
            volumes = np.concatenate(
                [
                    rng.integers(2_000_000, 9_000_000, heavy.size),
                    rng.integers(100, 5_000, light.size),
                ]
            )
            run.append(
                SlotSummary(
                    slot=index,
                    start=(FIRST_CELL + index) * SLOT_SECONDS,
                    slot_seconds=SLOT_SECONDS,
                    prefixes=[pool[row] for row in (*heavy, *light)],
                    volumes=volumes.astype(np.float64),
                    residual_bytes=float(rng.integers(0, 900)),
                    monitor=name,
                )
            )
        runs.append(run)
    return runs


RUNS = make_runs()
#: Drawn before the fleet's size is: taken modulo it.
MONITOR_INDEX = st.integers(0, 5)


class StitchedAgainstFull(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.state_dir = None
        self.handle = None
        self.clients = []

    @initialize(
        monitors=st.integers(2, len(MONITORS)),
        fill_gaps=st.booleans(),
        durable=st.booleans(),
    )
    def start(self, monitors, fill_gaps, durable):
        self.names = MONITORS[:monitors]
        self.fill_gaps = fill_gaps
        if durable:
            self.state_dir = tempfile.mkdtemp(prefix="repro-delta-")
        self.handle = ServiceHandle(self.service()).start()
        self.clients = [
            MonitorClient(
                self.handle.address,
                name,
                retries=60,
                backoff=0.01,
                backoff_cap=0.05,
            )
            for name in self.names
        ]
        #: The next summary of its run each monitor has yet to publish.
        self.cursor = [0] * monitors
        #: What the daemon took from each monitor (acked ``ok``).
        self.accepted = [[] for _ in self.names]
        self.connected = [True] * monitors

    def service(self, port=0):
        return CollectorService(
            port=port, fill_gaps=self.fill_gaps, state_dir=self.state_dir
        )

    def teardown(self):
        try:
            if self.clients:
                self.settle_and_compare(CELLS - 1)
                for client in self.clients:
                    client.close()
        finally:
            for client in self.clients:
                client.abort()
            if self.handle is not None:
                self.handle.stop()
            if self.state_dir is not None:
                shutil.rmtree(self.state_dir, ignore_errors=True)

    # -- the model ------------------------------------------------------

    def full(self):
        return query_service(self.handle.address)

    def publish_next(self, monitor):
        client = self.clients[monitor]
        summary = RUNS[monitor][self.cursor[monitor]]
        self.cursor[monitor] += 1
        before = client.published
        client.publish(summary)
        client.drain()
        self.connected[monitor] = True
        if client.published > before:
            self.accepted[monitor].append(summary)

    def sealed_cells(self, full):
        """The grid cell of every sealed slot, from the accepted
        summaries alone."""
        if full["next_cell"] is None:
            return []
        covered = {
            round(summary.start / SLOT_SECONDS)
            for run in self.accepted
            for summary in run
        }
        covered = sorted(cell for cell in covered if cell < full["next_cell"])
        if self.fill_gaps:
            covered = list(range(covered[0], full["next_cell"]))
        assert len(covered) == full["slots"]
        return covered

    def assert_stitched_equals_full(self, monitor):
        stitched = self.clients[monitor].query()
        self.connected[monitor] = True
        assert stitched == self.full()

    def settle_and_compare(self, cell):
        """Every monitor reports everything it has left up to ``cell``:
        their watermarks meet there and nothing stays pending, so the
        live history is the offline merge of what was accepted."""
        for monitor in range(len(self.names)):
            while self.cursor[monitor] <= cell:
                self.publish_next(monitor)
        assert self.full()["pending_cells"] == []
        offline = Collector(
            [run for run in self.accepted if run],
            fill_gaps=self.fill_gaps,
            check_skew=False,
        )
        expected = [
            elephant_entries(event.frame, event.verdict)
            for event in offline.events()
        ]
        for client in self.clients:
            stitched = client.query()
            assert stitched["elephants_by_slot"] == expected
            assert stitched == self.full()

    # -- the steps ------------------------------------------------------

    @rule(monitor=MONITOR_INDEX)
    def publish(self, monitor):
        monitor %= len(self.names)
        if self.cursor[monitor] < CELLS - 1:
            self.publish_next(monitor)

    @rule(monitor=MONITOR_INDEX)
    def skip_a_cell(self, monitor):
        monitor %= len(self.names)
        if self.cursor[monitor] < CELLS - 1:
            self.cursor[monitor] += 1

    @precondition(lambda self: max(self.cursor) < CELLS - 1)
    @rule()
    def everyone_skips_a_cell(self):
        """The cell nobody has reached yet: a gap slot, or a hole."""
        self.cursor = [max(self.cursor) + 1] * len(self.names)

    @rule(monitor=MONITOR_INDEX)
    def query(self, monitor):
        self.assert_stitched_equals_full(monitor % len(self.names))

    @rule(monitor=MONITOR_INDEX)
    def crash_a_monitor(self, monitor):
        """No BYE; whatever touches the client next redials it."""
        monitor %= len(self.names)
        if not self.connected[monitor]:
            return
        self.clients[monitor].abort()
        self.connected[monitor] = False
        deadline = time.monotonic() + 10.0
        while self.full()["monitors"][self.names[monitor]]["connected"]:
            assert time.monotonic() < deadline
            time.sleep(0.005)

    @rule(since_cell=st.integers(FIRST_CELL - 3, FIRST_CELL + CELLS + 3))
    def poll(self, since_cell):
        full = self.full()
        cells = self.sealed_cells(full)
        expected = full
        if cells and cells[0] <= since_cell <= full["next_cell"]:
            listed = [
                index for index, cell in enumerate(cells) if cell >= since_cell
            ]
            expected = dict(
                full,
                elephants_by_slot=[
                    full["elephants_by_slot"][index] for index in listed
                ],
                since_cell=cells[listed[0]] if listed else full["next_cell"],
            )
        polled = query_service(self.handle.address, since_cell=since_cell)
        assert polled == expected

    @precondition(lambda self: max(self.cursor) < CELLS - 1)
    @rule()
    def settle(self):
        self.settle_and_compare(max(self.cursor))

    @precondition(
        lambda self: self.state_dir and max(self.cursor) < CELLS - 1
    )
    @rule()
    def restart_the_daemon(self):
        """Stop it under its clients and start it on the same port and
        state: their sockets die with it, their cursors must too."""
        self.settle_and_compare(max(self.cursor))
        before = self.full()
        _, port = self.handle.address
        self.handle.stop()
        self.handle = ServiceHandle(self.service(port)).start()
        # every monitor, in hello order, before anyone publishes: what
        # ensure_connected() is for
        for client in self.clients:
            assert client.ensure_connected() == before["next_cell"]
        after = self.full()
        for key in ("elephants_by_slot", "series", "since_cell", "next_cell"):
            assert after[key] == before[key]

    @invariant()
    def the_first_monitors_report_is_the_full_one(self):
        if self.clients and self.connected[0]:
            self.assert_stitched_equals_full(0)


StitchedAgainstFull.TestCase.settings = settings(
    max_examples=30, stateful_step_count=25, deadline=None
)
TestStitchedAgainstFull = StitchedAgainstFull.TestCase
