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
    Collector,
    SlotSummary,
    StridedPacketSource,
    elephant_entries,
    merge_runs,
)
from repro.distributed.framing import (
    KIND_HELLO,
    KIND_QUERY,
    KIND_SUMMARY,
    encode_frame,
    encode_json_frame,
)
from repro.distributed.client import (
    MonitorClient,
    parse_address,
    publish_summaries,
    query_service,
)
from repro.distributed.service import (
    CollectorService,
    LiveCollector,
    LiveLink,
    ServiceHandle,
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
                sources=np.zeros(hi - lo, dtype=np.int64),
                destinations=self.dests[lo:hi],
                protocols=np.zeros(hi - lo, dtype=np.int64),
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
        with socket.create_connection(live.address, timeout=5.0) as s:
            s.sendall(encode_json_frame(KIND_HELLO, {"monitor": "mon-a"}))
            assert b"resume_cell" in s.recv(65536)
            s.sendall(encode_frame(KIND_SUMMARY, bytes(record)))
            assert b"invalid data" in s.recv(65536)
            assert s.recv(65536) == b""  # ...then the collector hangs up
        stats = publish_summaries(live.address, runs[1], monitor="mon-b")
        assert stats["published"] == len(runs[1])
        report = query_service(live.address)
        assert report["slots"] == len(runs[1])
        assert report["monitors"]["mon-a"]["slots_received"] == 0

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
        sealed = service.checkpoint.sealed["link0"]
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
