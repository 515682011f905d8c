"""Live collector service tests: the loopback multi-monitor harness.

The acceptance property for the service: a fleet of monitors streaming
summaries into a *live* ``CollectorService`` over real sockets must
produce, slot for slot, the same merged elephants the offline
``merge_runs`` → ``Collector`` path computes from the same summaries —
including when a monitor crashes mid-run and its uncovered intervals
are gap-filled. The monitors here publish strictly round-robin (one
summary, one ack, next monitor), which pins the per-cell arrival order
to the offline flatten order and makes the comparison exact, float for
float.
"""

import dataclasses
import socket
import struct
import time

import numpy as np
import pytest

from repro.distributed import (
    CheckpointStore,
    Collector,
    SlotSummary,
    StridedPacketSource,
    elephant_entries,
    merge_runs,
    result_envelope,
)
from repro.distributed.framing import (
    KIND_ACK,
    KIND_ERROR,
    KIND_HELLO,
    KIND_QUERY,
    KIND_REPLY,
    KIND_SUMMARY,
    FrameDecoder,
    encode_frame,
    encode_json_frame,
    grid_cell,
)
from repro.distributed.client import (
    MonitorClient,
    _BlockingFrames,
    parse_address,
    query_service,
)
from repro.distributed.merge import MAX_GAP_CELLS
from repro.distributed.service import (
    CollectorService,
    LiveCollector,
    LiveLink,
)
from repro.errors import (
    AddressError,
    ClassificationError,
    ServiceProtocolError,
)
from repro.net.prefix import Prefix
from repro.pipeline import (
    AggregatingSlotSource,
    StreamingAggregator,
)
from repro.pipeline.sources import PacketBatch
from repro.routing.lpm import FixedLengthResolver
from distributed.service_harness import ServiceHandle, publish_summaries

SLOT_SECONDS = 10.0
MONITORS = ("mon-a", "mon-b", "mon-c")


class ArraySource:
    """Chunked packet source over in-memory arrays."""

    def __init__(self, stamps, dests, sizes, chunk=500):
        self.stamps = stamps
        self.dests = dests
        self.sizes = sizes
        self.chunk = chunk

    def batches(self):
        for lo in range(0, self.stamps.size, self.chunk):
            hi = min(lo + self.chunk, self.stamps.size)
            yield PacketBatch(
                timestamps=self.stamps[lo:hi],
                destinations=self.dests[lo:hi],
                wire_bytes=self.sizes[lo:hi],
                packets_seen=hi - lo,
            )


@pytest.fixture(scope="module")
def runs():
    """Three monitor runs partitioning one heavy-tailed workload."""
    rng = np.random.default_rng(42)
    count = 8000
    stamps = np.sort(rng.uniform(0, 8 * SLOT_SECONDS, count))
    heavy = rng.random(count) < 0.6
    flow = np.where(
        heavy, rng.integers(0, 4, count), rng.integers(4, 34, count)
    )
    dests = (10 << 24) + flow * (1 << 16) + 1
    sizes = np.where(heavy, 1500, 72)

    def monitor_run(offset, name):
        source = StridedPacketSource(
            ArraySource(stamps, dests, sizes), len(MONITORS), offset
        )
        aggregator = StreamingAggregator(
            FixedLengthResolver(16),
            slot_seconds=SLOT_SECONDS,
            start=0.0,
        )
        slots = AggregatingSlotSource(source, aggregator)
        return [
            SlotSummary.from_frame(frame, SLOT_SECONDS, monitor=name)
            for frame in slots.slots()
        ]

    return [
        monitor_run(offset, name)
        for offset, name in enumerate(MONITORS)
    ]


def offline_report(monitor_runs):
    """What the offline merge path answers for the same summaries."""
    collector = Collector(monitor_runs, fill_gaps=True)
    entries = [
        elephant_entries(event.frame, event.verdict)
        for event in collector.events()
    ]
    total = sum(s.total_bytes for s in collector.merged)
    residual = sum(s.residual_bytes for s in collector.merged)
    return {
        "slots": len(entries),
        "elephants_by_slot": entries,
        "residual_fraction": residual / total if total else 0.0,
        "skew_estimate": collector.skew_estimate,
    }


def stream_round_robin(address, monitor_runs, cells=None):
    """Publish runs strictly interleaved: one summary, one ack."""
    clients = [
        MonitorClient(address, name) for name in MONITORS
    ]
    limit = max(len(run) for run in monitor_runs)
    for cell in range(limit if cells is None else cells):
        for run, client in zip(monitor_runs, clients):
            if cell < len(run):
                client.publish(run[cell])
                client.drain()
    return clients


@pytest.fixture()
def live():
    """A collector service on a loopback port, torn down after."""
    with ServiceHandle(CollectorService()) as handle:
        yield handle


class TestLoopbackEquivalence:
    def test_live_service_matches_offline_merge(self, live, runs):
        clients = stream_round_robin(live.address, runs)
        for client in clients:
            client.close()
        report = query_service(live.address)
        expected = offline_report(runs)
        assert report["slots"] == expected["slots"]
        # slot-for-slot, float-for-float: the acceptance criterion
        assert (
            report["elephants_by_slot"] == expected["elephants_by_slot"]
        )
        assert report["residual_fraction"] == pytest.approx(
            expected["residual_fraction"]
        )
        assert report["elephants"] == expected["elephants_by_slot"][-1]
        skew = {
            MONITORS[index]: offset
            for index, offset in expected["skew_estimate"].items()
        }
        assert report["skew_estimate"] == skew

    def test_query_reports_monitor_liveness(self, live, runs):
        clients = stream_round_robin(live.address, runs, cells=2)
        mid = query_service(live.address)
        assert all(
            mid["monitors"][name]["connected"] for name in MONITORS
        )
        assert all(
            mid["monitors"][name]["slots_received"] == 2
            for name in MONITORS
        )
        for client in clients:
            client.close()
        done = query_service(live.address)
        assert not any(
            done["monitors"][name]["connected"] for name in MONITORS
        )
        assert done["monitors"]["mon-a"]["last_cell"] == 1

    def test_slots_seal_only_up_to_the_frontier(self, live, runs):
        clients = stream_round_robin(live.address, runs, cells=3)
        # every monitor has reported cells 0..2: exactly 3 sealed
        assert query_service(live.address)["slots"] == 3
        # one monitor advancing alone moves its watermark, not the
        # frontier — nothing new seals until the others catch up
        clients[0].publish(runs[0][3])
        clients[0].drain()
        assert query_service(live.address)["slots"] == 3
        for client in clients:
            client.close()
        # all monitors gone: the pending tail (cell 3) seals too
        assert query_service(live.address)["slots"] == 4

    def test_publish_summaries_convenience(self, live, runs):
        stats = publish_summaries(
            live.address, runs[0], monitor="mon-a"
        )
        assert stats == {
            "published": len(runs[0]),
            "stale": 0,
            "skipped": 0,
            "reconnects": 0,
        }
        report = query_service(live.address)
        assert report["slots"] == len(runs[0])


class TestCrashAndReconnect:
    def test_crashed_monitor_degrades_to_partial_merge(
        self, live, runs
    ):
        survivors = [MonitorClient(live.address, n) for n in MONITORS]
        for cell in range(3):
            for run, client in zip(runs, survivors):
                client.publish(run[cell])
                client.drain()
        # mon-c dies without a BYE; the server notices the dropped
        # socket and stops letting it gate the frontier
        survivors[2].abort()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            report = query_service(live.address)
            if not report["monitors"]["mon-c"]["connected"]:
                break
            time.sleep(0.02)
        assert not report["monitors"]["mon-c"]["connected"]
        for cell in range(3, 8):
            for run, client in zip(runs[:2], survivors[:2]):
                client.publish(run[cell])
                client.drain()
        for client in survivors[:2]:
            client.close()
        report = query_service(live.address)
        degraded = offline_report([runs[0], runs[1], runs[2][:3]])
        assert report["slots"] == degraded["slots"]
        assert (
            report["elephants_by_slot"]
            == degraded["elephants_by_slot"]
        )

    def test_reconnect_resumes_above_sealed_history(self, live, runs):
        first = MonitorClient(live.address, "mon-a")
        for summary in runs[0][:3]:
            first.publish(summary)
            first.drain()
        first.abort()  # crash: cells 0..2 seal (no one else gates)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if query_service(live.address)["slots"] == 3:
                break
            time.sleep(0.02)
        assert query_service(live.address)["slots"] == 3
        second = MonitorClient(live.address, "mon-a")
        assert second.resume_cell == 3
        # resent history is skipped client-side without a round trip
        assert second.publish(runs[0][1]) is False
        assert second.skipped == 1
        for summary in runs[0][3:]:
            second.publish(summary)
        second.close()
        report = query_service(live.address)
        assert report["slots"] == len(runs[0])
        assert (
            report["elephants_by_slot"]
            == offline_report([runs[0]])["elephants_by_slot"]
        )
        assert report["monitors"]["mon-a"]["connections"] == 2

    def test_stale_resend_is_acked_and_dropped(self, live, runs):
        client = MonitorClient(live.address, "mon-a")
        client.publish(runs[0][0])
        client.publish(runs[0][1])
        client.drain()
        # a duplicate of an already-covered cell: acked "stale"
        client.publish(runs[0][1])
        client.drain()
        assert client.stale == 1
        assert client.published == 2
        client.close()
        report = query_service(live.address)
        assert report["monitors"]["mon-a"]["stale_slots"] == 1
        assert report["monitors"]["mon-a"]["slots_received"] == 2

    def test_gap_fill_bridges_a_monitor_outage(self, live, runs):
        """Crash, silence, reconnect later: the hole gap-fills."""
        run = runs[0]
        first = MonitorClient(live.address, "mon-a")
        for summary in run[:3]:
            first.publish(summary)
        first.close()
        second = MonitorClient(live.address, "mon-a")
        for summary in run[6:]:
            second.publish(summary)
        second.close()
        report = query_service(live.address)
        expected = offline_report([run[:3] + run[6:]])
        assert report["slots"] == len(run)  # 3..5 gap-filled
        assert (
            report["elephants_by_slot"]
            == expected["elephants_by_slot"]
        )
        # the gap slots carried zero traffic; any latent-heat
        # holdovers the classifier keeps report a zero rate
        for entries in report["elephants_by_slot"][3:6]:
            assert all(entry["rate_bps"] == 0.0 for entry in entries)


def refused_alone(address, record, runs):
    """``record`` earns its sender an error frame and a hang-up; the
    collector goes on to serve another monitor's whole run."""
    with socket.create_connection(address, timeout=5.0) as s:
        s.sendall(encode_json_frame(KIND_HELLO, {"monitor": "mon-a"}))
        assert b"resume_cell" in s.recv(65536)
        s.sendall(encode_frame(KIND_SUMMARY, record))
        assert b"invalid data" in s.recv(65536)
        assert s.recv(65536) == b""  # ...then the collector hangs up
    stats = publish_summaries(address, runs[1], monitor="mon-b")
    assert stats["published"] == len(runs[1])
    report = query_service(address)
    assert report["slots"] == len(runs[1])
    assert report["monitors"]["mon-a"]["slots_received"] == 0


class TestServiceRobustness:
    def test_duplicate_monitor_name_is_refused(self, live):
        first = MonitorClient(live.address, "mon-a")
        with pytest.raises(ServiceProtocolError, match="already"):
            MonitorClient(live.address, "mon-a")
        first.close()
        # the name frees up once the holder leaves
        MonitorClient(live.address, "mon-a").close()

    def test_summary_before_hello_is_refused(self, live, runs):
        with socket.create_connection(live.address, timeout=5.0) as s:
            s.sendall(
                encode_frame(KIND_SUMMARY, runs[0][0].to_bytes())
            )
            reply = s.recv(65536)
        assert b"hello" in reply

    def test_corrupt_frame_kills_only_that_connection(
        self, live, runs
    ):
        client = MonitorClient(live.address, "mon-a")
        client.publish(runs[0][0])
        client.drain()
        with socket.create_connection(live.address, timeout=5.0) as s:
            s.sendall(struct.pack(">cI", b"Z", 4) + b"junk")
            assert s.recv(65536) != b""  # error frame, then EOF
        # the server survived: the attached monitor keeps streaming
        client.publish(runs[0][1])
        client.drain()
        client.close()
        assert query_service(live.address)["slots"] == 2

    def test_non_finite_summary_kills_only_that_connection(self, live, runs):
        """A NaN ``start`` earns an error frame, not a daemon traceback."""
        record = bytearray(runs[0][0].to_bytes())
        struct.pack_into(">d", record, 14, float("nan"))  # the start field
        refused_alone(live.address, bytes(record), runs)

    def test_overflowing_grid_cell_kills_only_that_connection(
        self, live, runs
    ):
        """Finite ``start`` and ``slot_seconds`` whose cell is not."""
        record = bytearray(runs[0][0].to_bytes())
        struct.pack_into(">dd", record, 14, 1e308, 1e-308)
        refused_alone(live.address, bytes(record), runs)

    def test_query_unknown_link_is_an_error(self, live, runs):
        publish_summaries(live.address, runs[0][:1], monitor="mon-a")
        with pytest.raises(ServiceProtocolError, match="unknown link"):
            query_service(live.address, link="no-such-link")

    def test_query_with_no_links_is_an_error(self, live):
        with pytest.raises(ServiceProtocolError, match="no links"):
            query_service(live.address)

    def test_query_names_link_when_several_are_live(self, live, runs):
        publish_summaries(
            live.address, runs[0][:1], monitor="mon-a", link="east"
        )
        publish_summaries(
            live.address, runs[1][:1], monitor="mon-b", link="west"
        )
        with pytest.raises(ServiceProtocolError, match="east"):
            query_service(live.address)
        report = query_service(live.address, link="east")
        assert report["link"] == "east"
        assert report["links"] == ["east", "west"]

    def test_mixed_slot_grids_are_refused(self, live, runs):
        client = MonitorClient(live.address, "mon-a")
        client.publish(runs[0][0])
        client.drain()
        other = MonitorClient(live.address, "mon-b")
        wrong = SlotSummary(
            slot=0,
            start=4 * SLOT_SECONDS,
            slot_seconds=SLOT_SECONDS * 2,
            prefixes=(),
            volumes=np.zeros(0),
            monitor="mon-b",
        )
        other.publish(wrong)
        with pytest.raises(ServiceProtocolError, match="grid"):
            other.drain()
        client.close()

    def test_hello_without_monitor_name_is_refused(self, live):
        with socket.create_connection(live.address, timeout=5.0) as s:
            s.sendall(encode_json_frame(KIND_HELLO, {"link": "l"}))
            reply = s.recv(65536)
        assert b"monitor name" in reply

    def test_query_connection_can_repeat(self, live, runs):
        publish_summaries(live.address, runs[0], monitor="mon-a")
        with socket.create_connection(live.address, timeout=5.0) as s:
            for _ in range(2):
                s.sendall(encode_json_frame(KIND_QUERY, {"link": None}))
                assert s.recv(65536)


def wait_until_gone(address, monitor):
    """Poll until the service has noticed ``monitor``'s dropped socket."""
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if not query_service(address)["monitors"][monitor]["connected"]:
            return
        time.sleep(0.02)
    raise AssertionError(f"{monitor} still attached")


class TestMergeOrder:
    """A cell merges in first-hello order, whichever frame came first.

    ``merge_summaries`` numbers rows first-seen and adds left to right,
    so the order of its inputs decides the merged row order, the
    tie-break of the re-truncation and the last ulp of every sum; it
    used to be the order the sockets happened to be read in.
    """

    K = 20

    @pytest.fixture(scope="class")
    def fleet(self):
        """Three overlapping runs with fractional volumes and ties."""
        rng = np.random.default_rng(7)
        pool = [Prefix((10 << 24) | (row << 16), 16) for row in range(40)]

        def run(name):
            summaries = []
            for cell in range(6):
                picks = rng.permutation(len(pool))[:30].tolist()
                volumes = rng.uniform(0.1, 1e6, 30)
                volumes[:8] = 0.1  # ties: the cut depends on row order
                summaries.append(
                    SlotSummary(
                        slot=cell,
                        start=cell * SLOT_SECONDS,
                        slot_seconds=SLOT_SECONDS,
                        prefixes=[pool[pick] for pick in picks],
                        volumes=volumes,
                        residual_bytes=float(rng.uniform(0.0, 10.0)),
                        monitor=name,
                    )
                )
            return summaries

        return [run(name) for name in MONITORS]

    def sealed_bytes(self, fleet, state_dir, arrival):
        """Every sealed slot's wire record, the monitors greeting in
        MONITORS order and each cell's frames arriving in ``arrival``."""
        service = CollectorService(k=self.K, state_dir=str(state_dir))
        with ServiceHandle(service) as handle:
            clients = [MonitorClient(handle.address, n) for n in MONITORS]
            for cell in range(6):
                for index in arrival:
                    clients[index].publish(fleet[index][cell])
                    clients[index].drain()
            for client in clients:
                client.close()
            assert query_service(handle.address)["slots"] == 6
        with CheckpointStore(state_dir) as store:
            sealed = store.restored["link0"]
        return [summary.to_bytes() for summary in sealed]

    def test_interleaving_does_not_reach_the_sealed_bytes(
        self, fleet, tmp_path
    ):
        forward = self.sealed_bytes(fleet, tmp_path / "forward", (0, 1, 2))
        reverse = self.sealed_bytes(fleet, tmp_path / "reverse", (2, 1, 0))
        mixed = self.sealed_bytes(fleet, tmp_path / "mixed", (1, 2, 0))
        assert forward == reverse == mixed
        # ...and are what the offline merge makes of the same runs
        offline = merge_runs(fleet, k=self.K, check_skew=False)
        assert forward == [summary.to_bytes() for summary in offline]


class TestRefusedFirstCell:
    """A link's first sealed cell carries no bytes, so the threshold
    detector refuses it. It used to reach the WAL before the classifier,
    and every restart on that state directory then failed the same way
    in ``restore``."""

    def test_the_rest_is_served_and_survives_a_restart(self, runs, tmp_path):
        run = runs[0][:4]
        empty = dataclasses.replace(
            run[0], prefixes=[], volumes=np.zeros(0), residual_bytes=0.0
        )
        service = CollectorService(state_dir=str(tmp_path))
        with ServiceHandle(service) as handle:
            client = MonitorClient(handle.address, "mon-a")
            client.publish(empty)
            with pytest.raises(ServiceProtocolError, match="no active"):
                client.drain()
            client.abort()
            with MonitorClient(handle.address, "mon-a") as client:
                for summary in run[1:]:
                    client.publish(summary)
                client.drain()
            live = query_service(handle.address)
        restart = CollectorService(state_dir=str(tmp_path))
        with ServiceHandle(restart) as handle:
            restarted = query_service(handle.address)
        # what `repro merge` answers for cells 1-3
        events = Collector([run[1:]], fill_gaps=True).events()
        offline = result_envelope(
            "merge", {}, [elephant_entries(e.frame, e.verdict) for e in events]
        )
        for field in ("elephants_by_slot", "series", "elephants"):
            assert live[field] == restarted[field] == offline[field]


def shifted(summary, seconds):
    return dataclasses.replace(summary, start=summary.start + seconds)


class TestOffGridStart:
    """A summary whose start is off its grid cell is refused at the
    door, on the connection that sent it. It used to be binned by a
    rounded cell and fail the merge at seal time — with the cell
    already popped, in the handler of whichever monitor's summary
    happened to move the frontier."""

    def test_live_collector_refuses_it_and_touches_nothing(self, runs):
        collector = LiveCollector()
        collector.attach("mon-a", "l")
        collector.attach("mon-b", "l")
        collector.add_summary("mon-a", "l", runs[0][0])
        with pytest.raises(ClassificationError, match="does not align"):
            collector.add_summary("mon-b", "l", shifted(runs[1][0], 1e-7))
        link = collector.links["l"]
        assert link.slots_sealed == 0
        assert collector.monitors[("l", "mon-b")].slots_received == 0
        # mon-b's cell is still open to the aligned summary
        assert collector.add_summary("mon-b", "l", runs[1][0]) == (0, "ok")
        assert link.slots_sealed == 1

    def test_the_first_arrival_is_held_to_the_grid(self, runs):
        link = LiveLink("l")
        link.attach("mon-a")
        off = shifted(runs[0][3], 1e-7)
        with pytest.raises(ClassificationError, match="start 30.0, grid"):
            link.add_summary("mon-a", off)
        assert link.slot_seconds is None
        assert link.add_summary("mon-a", runs[0][3]) == (3, "ok")

    def test_an_ulp_of_rounding_is_not_off_the_grid(self):
        """A monitor's start is ``origin + slot * seconds``; on a grid
        that is not a binary fraction that lands an ulp off
        ``cell * seconds`` now and then, and is still that cell."""
        start = 1 * 0.1 + 5 * 0.1
        assert start != 6 * 0.1
        link = LiveLink("l")
        link.attach("mon-a")
        summary = SlotSummary(5, start, 0.1, (), np.zeros(0), 600.0)
        assert link.add_summary("mon-a", summary) == (6, "ok")

    def test_service_fails_the_offender_and_seals_the_rest(self, live, runs):
        good = MonitorClient(live.address, "mon-a")
        bad = MonitorClient(live.address, "mon-b")
        good.publish(runs[0][0])
        good.drain()
        bad.publish(shifted(runs[1][0], 1e-7))
        with pytest.raises(ServiceProtocolError, match="does not align"):
            bad.drain()
        wait_until_gone(live.address, "mon-b")
        # the other monitor never hears of it: its run seals every cell
        for summary in runs[0][1:]:
            good.publish(summary)
            good.drain()
        good.close()
        report = query_service(live.address)
        assert report["slots"] == len(runs[0])
        expected = offline_report([runs[0]])
        assert report["elephants_by_slot"] == expected["elephants_by_slot"]
        assert report["monitors"]["mon-b"]["slots_received"] == 0


def moved(summary, cells):
    """``summary`` moved ``cells`` grid cells later."""
    return shifted(summary, cells * SLOT_SECONDS)


class TestGapCap:
    """A summary more than ``MAX_GAP_CELLS`` from every cell a
    gap-filling link holds is refused at the door. Filling its gap
    sealed one empty slot per cell on the event loop — seconds for
    1e5 cells, never for a cell near 1e18 — while every monitor and
    query waited."""

    def test_a_far_jump_is_refused_and_touches_nothing(self, runs):
        link = LiveLink("l")
        link.attach("mon-a")
        link.attach("mon-b")
        for summary in runs[0][:2]:
            link.add_summary("mon-a", summary)
        link.add_summary("mon-b", runs[1][0])
        before = link.report()
        assert (before["next_cell"], before["pending_cells"]) == (1, [1])
        for cells in (MAX_GAP_CELLS + 1, 10**18):
            with pytest.raises(ClassificationError, match="cells from"):
                link.add_summary("mon-b", moved(runs[1][1], cells))
            assert link.report() == before
        # the next valid summary is still accepted, and seals cell 1
        assert link.add_summary("mon-b", runs[1][1]) == (1, "ok")
        assert link.slots_sealed == 2

    def test_service_sends_one_error_frame_and_serves_on(self, live, runs):
        good = MonitorClient(live.address, "mon-b")
        good.publish(runs[1][0])
        good.drain()
        far = moved(runs[0][1], MAX_GAP_CELLS + 1)
        decoder, frames = FrameDecoder(), []
        with socket.create_connection(live.address, timeout=5.0) as s:
            s.sendall(encode_json_frame(KIND_HELLO, {"monitor": "mon-a"}))
            s.sendall(encode_frame(KIND_SUMMARY, far.to_bytes()))
            while chunk := s.recv(65536):  # ...until the hang-up
                frames.extend(decoder.feed(chunk))
        assert [kind for kind, _ in frames] == [KIND_REPLY, KIND_ERROR]
        assert b"cells from" in frames[1][1]
        wait_until_gone(live.address, "mon-a")
        for summary in runs[1][1:]:
            good.publish(summary)
            good.drain()
        good.close()
        report = query_service(live.address)
        expected = offline_report([runs[1]])
        assert report["elephants_by_slot"] == expected["elephants_by_slot"]
        assert report["monitors"]["mon-a"]["slots_received"] == 0

    def test_live_equals_offline_at_exactly_the_widest_gap(self, live, runs):
        run = runs[0][:2] + [moved(s, MAX_GAP_CELLS - 1) for s in runs[0][2:4]]
        publish_summaries(live.address, run, monitor="mon-a")
        report = query_service(live.address)
        expected = offline_report([run])
        assert report["slots"] == expected["slots"] == 3 + MAX_GAP_CELLS
        assert report["elephants_by_slot"] == expected["elephants_by_slot"]
        # one more cell and both refuse it
        wider = runs[0][:2] + [moved(runs[0][2], MAX_GAP_CELLS)]
        with pytest.raises(ClassificationError, match="cells from"):
            offline_report([wider])
        with pytest.raises(ServiceProtocolError, match="cells from"):
            publish_summaries(live.address, wider, "mon-b", link="wider")

    def test_without_gap_filling_a_far_cell_is_one_jump(self, runs):
        link = LiveLink("l", fill_gaps=False)
        link.attach("mon-a")
        link.add_summary("mon-a", runs[0][0])
        far = moved(runs[0][1], 10**18)
        cell = grid_cell(far.start, SLOT_SECONDS)
        assert link.add_summary("mon-a", far) == (cell, "ok")
        assert link.slots_sealed == 2
        assert link.next_cell == cell + 1


class TestOnceCondition:
    def test_service_finishes_after_n_clean_runs(self, runs):
        service = CollectorService(once=len(MONITORS))
        with ServiceHandle(service) as handle:
            clients = stream_round_robin(handle.address, runs)
            for client in clients:
                client.close()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if service.collector.runs_completed >= len(MONITORS):
                    break
                time.sleep(0.02)
        assert service.collector.runs_completed == len(MONITORS)
        # handle exit joined the thread; the socket is gone
        with pytest.raises(OSError):
            socket.create_connection(handle.address, timeout=0.5)


class TestLiveLinkUnit:
    """Transport-free frontier semantics, directly on LiveLink."""

    def summary(self, cell, monitor, volume=600.0):
        return SlotSummary(
            slot=cell,
            start=cell * SLOT_SECONDS,
            slot_seconds=SLOT_SECONDS,
            prefixes=(),
            volumes=np.zeros(0),
            residual_bytes=volume,
            monitor=monitor,
        )

    def test_connected_but_silent_monitor_blocks_sealing(self):
        link = LiveLink("l")
        link.attach("a")
        link.attach("b")
        link.add_summary("a", self.summary(0, "a"))
        assert link.slots_sealed == 0  # b has not reported
        link.add_summary("b", self.summary(0, "b"))
        assert link.slots_sealed == 1

    def test_detach_of_last_monitor_seals_everything(self):
        link = LiveLink("l")
        link.attach("a")
        link.add_summary("a", self.summary(0, "a"))
        link.add_summary("a", self.summary(1, "a"))
        assert link.slots_sealed == 2
        link.detach("a")
        assert link.slots_sealed == 2

    def test_reattach_does_not_stall_the_frontier(self):
        link = LiveLink("l")
        link.attach("a")
        link.add_summary("a", self.summary(0, "a"))
        link.detach("a")
        assert link.slots_sealed == 1
        # a returns but says nothing; a second monitor streams on
        assert link.attach("a") == 1
        link.attach("b")
        link.add_summary("b", self.summary(1, "b"))
        # a's backfilled watermark (cell 0) gates the frontier at 0:
        # cell 1 stays pending until a reports or leaves
        assert link.slots_sealed == 1
        link.detach("a")
        assert link.slots_sealed == 2

    def test_stale_below_sealed_frontier(self):
        link = LiveLink("l")
        link.attach("a")
        link.add_summary("a", self.summary(2, "a"))
        link.detach("a")
        link.attach("b")
        cell, outcome = link.add_summary("b", self.summary(1, "b"))
        assert (cell, outcome) == (1, "stale")

    def test_out_of_order_cells_within_one_monitor_are_stale(self):
        link = LiveLink("l")
        link.attach("a")
        link.add_summary("a", self.summary(3, "a"))
        assert link.add_summary("a", self.summary(2, "a"))[1] == "stale"


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("10.1.2.3:9000") == ("10.1.2.3", 9000)

    def test_bare_port_defaults_to_loopback(self):
        assert parse_address("9000") == ("127.0.0.1", 9000)

    def test_rejects_garbage(self):
        with pytest.raises(AddressError):
            parse_address("nohost:noport")
        with pytest.raises(AddressError):
            parse_address("1.2.3.4:99999")


class TestBelowTableInTheEnvelope:
    def test_listed_only_when_a_slot_was_below(self):
        slots = [[], [{"prefix": "10.0.0.0/16", "rate_bps": 1.0}]]
        plain = result_envelope("merge", {}, slots)
        assert "cut_below_table" not in plain["series"]
        flagged = result_envelope("merge", {}, slots, below_table=[0])
        assert flagged["series"]["cut_below_table"] == [0]
        assert {**flagged["series"], "cut_below_table": None} == {
            **plain["series"],
            "cut_below_table": None,
        }

    def test_a_partial_reply_lists_every_below_slot(self):
        """Slots 0 and 1 carry a residual far above their table."""
        pool = [Prefix((10 << 24) | (row << 16), 16) for row in range(6)]
        link = LiveLink("l", fill_gaps=False)
        link.attach("mon-a")
        for cell, residual in enumerate([1e9, 1e9, 0.0, 0.0]):
            link.add_summary(
                "mon-a",
                SlotSummary(
                    slot=cell,
                    start=cell * SLOT_SECONDS,
                    slot_seconds=SLOT_SECONDS,
                    prefixes=pool,
                    volumes=np.array([4e6, 4e6 + 1, 500, 501, 502, 503]),
                    residual_bytes=residual,
                    monitor="mon-a",
                ),
            )
        link.detach("mon-a")
        part = link.report(since_cell=3)
        assert len(part["elephants_by_slot"]) == 1
        assert part["series"]["cut_below_table"] == [0, 1]


class TestRefusalBehindABrokenSend:
    """What the daemon said before it hung up is read back when a send
    breaks on the hang-up (``_BlockingFrames.refusal``)."""

    def test_the_error_frame_after_acks_is_the_reason(self):
        ours, theirs = socket.socketpair()
        with ours, theirs:
            theirs.sendall(
                encode_json_frame(KIND_ACK, {"status": "ok"})
                + encode_json_frame(KIND_ERROR, {"error": "does not align"})
            )
            theirs.close()
            refusal = _BlockingFrames(ours).refusal()
        assert isinstance(refusal, ServiceProtocolError)
        assert str(refusal) == "does not align"

    def test_a_plain_hang_up_has_no_reason(self):
        ours, theirs = socket.socketpair()
        with ours, theirs:
            theirs.close()
            assert _BlockingFrames(ours).refusal() is None
