"""``since_cell``: a query pays for the slots sealed since the last one.

A reader that holds every sealed slot below a cell says so in its
QUERY; the reply lists the rest and still describes the whole link.
Pinned here: which slots a cell selects (gap-filled links and links
with holes), the bytes of an unqualified reply against the parent
commit's, what :class:`MonitorClient` retains and when it lets go,
and the three ways the read side used to fail — a hostile cell, a
history that outgrew a frame, a whole-history liveness probe.
"""

import socket

import numpy as np
import pytest

from repro.distributed import framing
from repro.distributed.client import MonitorClient, query_service
from repro.distributed.framing import (
    DEFAULT_LINK,
    KIND_ERROR,
    KIND_QUERY,
    KIND_REPLY,
    FrameDecoder,
    decode_json,
    encode_frame,
    encode_json_frame,
)
from repro.distributed.service import (
    CollectorService,
    LiveCollector,
    LiveLink,
    ServiceHandle,
)
from repro.distributed.summary import SlotSummary
from repro.errors import ServiceProtocolError
from repro.net.prefix import Prefix

SLOT_SECONDS = 60.0
GOLDEN_CELLS = (3, 4, 6, 7)
POOL = [Prefix((10 << 24) | (row << 16), 16) for row in range(16)]


def golden_fleet():
    """Two monitors, four cells with a hole at cell 5, two elephants.

    The scenario the ``GOLDEN_*`` replies were recorded from on the
    parent commit; everything in it is arithmetic, nothing is drawn.
    """
    runs = []
    for offset, name in enumerate(("mon-a", "mon-é")):
        run = []
        for cell in GOLDEN_CELLS:
            rows = [row for row in range(12) if (row + cell + offset) % 3]
            run.append(
                SlotSummary(
                    slot=cell - GOLDEN_CELLS[0],
                    start=cell * SLOT_SECONDS,
                    slot_seconds=SLOT_SECONDS,
                    prefixes=[POOL[row] for row in rows],
                    volumes=np.array(
                        [
                            1e7 / (row + 1) ** 2 * (1 + cell / 8) + row / 7
                            for row in rows
                        ]
                    ),
                    residual_bytes=100.5 + cell,
                    monitor=name,
                )
            )
        runs.append(run)
    return runs


def stream_golden(address):
    """Both golden runs, cell by cell; mon-é says BYE, mon-a stays."""
    runs = golden_fleet()
    clients = [MonitorClient(address, run[0].monitor) for run in runs]
    for pair in zip(*runs):
        for client, summary in zip(clients, pair):
            client.publish(summary)
            client.drain()
    clients[1].close()
    return clients[0]


def raw_exchange(address, frame):
    """Send one frame on a fresh socket; every frame until EOF."""
    frames = []
    decoder = FrameDecoder()
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.sendall(frame)
        sock.shutdown(socket.SHUT_WR)
        while data := sock.recv(65536):
            frames.extend(decoder.feed(data))
    return frames


def tiny_run(cells, monitor="mon-a", elephants=2):
    """One small summary per cell: a few elephants over a few mice."""
    run = []
    for cell in cells:
        volumes = [4e6 + 1000 * row + cell for row in range(elephants)]
        volumes += [500.0 + row for row in range(elephants, elephants + 4)]
        run.append(
            SlotSummary(
                slot=cell - cells[0],
                start=cell * SLOT_SECONDS,
                slot_seconds=SLOT_SECONDS,
                prefixes=POOL[: len(volumes)],
                volumes=np.array(volumes),
                monitor=monitor,
            )
        )
    return run


def sealed_link(cells, fill_gaps):
    link = LiveLink("l", fill_gaps=fill_gaps)
    link.attach("mon-a")
    for summary in tiny_run(cells):
        link.add_summary("mon-a", summary)
    return link


class TestWhichSlotsACellSelects:
    """Transport-free, on :meth:`LiveLink.report`."""

    CELLS = (3, 4, 7, 8, 11)  # holes at 5-6 and 9-10

    @pytest.fixture(scope="class")
    def holes(self):
        return sealed_link(self.CELLS, fill_gaps=False)

    def listed(self, link, since_cell):
        """(reply since_cell, index of the first listed slot)."""
        full = link.report()
        part = link.report(since_cell)
        by_slot = part.pop("elephants_by_slot")
        first = len(full["elephants_by_slot"]) - len(by_slot)
        assert by_slot == full["elephants_by_slot"][first:]
        # every other field describes the whole link, as the full one
        whole = {
            key: value
            for key, value in full.items()
            if key not in ("elephants_by_slot", "since_cell")
        }
        assert {k: v for k, v in part.items() if k != "since_cell"} == whole
        return part["since_cell"], first

    def test_full_reply_names_the_first_sealed_cell(self, holes):
        full = holes.report()
        assert full["slots"] == len(self.CELLS)
        assert full["next_cell"] == 12
        assert full["since_cell"] == 3
        assert holes.report(None) == full

    def test_on_a_sealed_cell(self, holes):
        assert self.listed(holes, 3) == (3, 0)
        assert self.listed(holes, 4) == (4, 1)
        assert self.listed(holes, 7) == (7, 2)
        assert self.listed(holes, 11) == (11, 4)

    def test_in_a_hole_lists_from_the_next_sealed_cell(self, holes):
        # slot index is not cell - first_cell on this link: 5 - 3 = 2
        # would list cell 7's slot by luck, 9 - 3 = 6 nothing at all
        assert self.listed(holes, 5) == (7, 2)
        assert self.listed(holes, 6) == (7, 2)
        assert self.listed(holes, 9) == (11, 4)
        assert self.listed(holes, 10) == (11, 4)

    def test_at_next_cell_lists_nothing_and_still_answers(self, holes):
        assert self.listed(holes, 12) == (12, 5)
        part = holes.report(12)
        assert part["elephants_by_slot"] == []
        assert part["elephants"] == holes.report()["elephants_by_slot"][-1]
        assert part["elephants"]
        assert part["series"]["num_slots"] == len(self.CELLS)

    def test_a_cell_this_history_cannot_continue_gets_it_all(self, holes):
        # below the first sealed cell, and past next_cell: a reader of
        # some other history (a stateless daemon that restarted)
        for cell in (0, 2, 13, 1 << 40):
            assert holes.report(cell) == holes.report()

    def test_gap_filled_link(self):
        link = sealed_link(self.CELLS, fill_gaps=True)
        assert link.report()["slots"] == 9  # 3..11, four of them gaps
        assert self.listed(link, 5) == (5, 2)
        assert self.listed(link, 10) == (10, 7)
        assert self.listed(link, 12) == (12, 9)

    def test_nothing_sealed_yet(self):
        link = LiveLink("l")
        link.attach("mon-a")
        for cell in (None, 0, 7):
            report = link.report(cell)
            assert report["elephants_by_slot"] == []
            assert report["since_cell"] is None

    def test_a_restored_link_keeps_its_cells(self):
        """Cells are absolute: a poller's cursor survives a restore."""
        merged = []
        link = LiveLink("l", fill_gaps=False, on_seal=merged.append)
        link.attach("mon-a")
        for summary in tiny_run(self.CELLS):
            link.add_summary("mon-a", summary)
        restored = LiveLink("l", fill_gaps=False)
        restored.restore(merged)
        for cell in (None, 3, 5, 8, 12, 13):
            # skew totals are facts about connections, not persisted
            expected = link.report(cell) | {"skew_estimate": {}}
            assert restored.report(cell) == expected

    def test_collector_query_passes_the_cell_through(self):
        collector = LiveCollector()
        collector.attach("mon-a", "l")
        for summary in tiny_run((3, 4, 5)):
            collector.add_summary("mon-a", "l", summary)
        part = collector.query("l", since_cell=5)
        assert len(part["elephants_by_slot"]) == 1
        assert part["since_cell"] == 5 and part["slots"] == 3


# Raw REPLY payloads of a parent-commit daemon to `{"link": null}`
# after stream_golden(), gap-filled and not.
GOLDEN_FILLED = (
    b'{"status": "ok", "schema": "repro.result/1", "command": "query", '
    b'"spec": {"scheme": "constant-load", "feature": "latent-heat", '
    b'"k": 8, "fill_gaps": true}, "elephants": [{"prefix": "10.0.0.0/16", '
    b'"rate_bps": 5000000.0}, {"prefix": "10.1.0.0/16", "rate_bps": '
    b'625000.019048}], "elephants_by_slot": [[{"prefix": "10.0.0.0/16", '
    b'"rate_bps": 1833333.333333}, {"prefix": "10.1.0.0/16", "rate_bps": '
    b'916666.704762}], [{"prefix": "10.0.0.0/16", "rate_bps": 4000000.0}, '
    b'{"prefix": "10.1.0.0/16", "rate_bps": 500000.019048}], [{"prefix": '
    b'"10.0.0.0/16", "rate_bps": 0.0}], [{"prefix": "10.0.0.0/16", '
    b'"rate_bps": 2333333.333333}, {"prefix": "10.1.0.0/16", "rate_bps": '
    b'1166666.704762}], [{"prefix": "10.0.0.0/16", "rate_bps": 5000000.0}, '
    b'{"prefix": "10.1.0.0/16", "rate_bps": 625000.019048}]], "series": '
    b'{"num_slots": 5, "elephants_per_slot": [2, 2, 1, 2, 2], '
    b'"mean_elephants_per_slot": 1.8}, "link": "link0", "slot_seconds": '
    b'60.0, "slots": 5, "next_cell": 8, "pending_cells": [], '
    b'"residual_fraction": 0.019472055062311363, "skew_estimate": '
    b'{"mon-a": 0.0, "mon-\\u00e9": 0.0}, "monitors": {"mon-a": '
    b'{"connected": true, "connections": 1, "slots_received": 4, '
    b'"stale_slots": 0, "last_cell": 7}, "mon-\\u00e9": {"connected": '
    b'false, "connections": 1, "slots_received": 4, "stale_slots": 0, '
    b'"last_cell": 7}}, "links": ["link0"]}'
)
GOLDEN_HOLES = (
    b'{"status": "ok", "schema": "repro.result/1", "command": "query", '
    b'"spec": {"scheme": "constant-load", "feature": "latent-heat", '
    b'"k": 8, "fill_gaps": false}, "elephants": [{"prefix": "10.0.0.0/16", '
    b'"rate_bps": 5000000.0}, {"prefix": "10.1.0.0/16", "rate_bps": '
    b'625000.019048}], "elephants_by_slot": [[{"prefix": "10.0.0.0/16", '
    b'"rate_bps": 1833333.333333}, {"prefix": "10.1.0.0/16", "rate_bps": '
    b'916666.704762}], [{"prefix": "10.0.0.0/16", "rate_bps": 4000000.0}, '
    b'{"prefix": "10.1.0.0/16", "rate_bps": 500000.019048}], [{"prefix": '
    b'"10.0.0.0/16", "rate_bps": 2333333.333333}, {"prefix": '
    b'"10.1.0.0/16", "rate_bps": 1166666.704762}], [{"prefix": '
    b'"10.0.0.0/16", "rate_bps": 5000000.0}, {"prefix": "10.1.0.0/16", '
    b'"rate_bps": 625000.019048}]], "series": {"num_slots": 4, '
    b'"elephants_per_slot": [2, 2, 2, 2], "mean_elephants_per_slot": 2.0}, '
    b'"link": "link0", "slot_seconds": 60.0, "slots": 4, "next_cell": 8, '
    b'"pending_cells": [], "residual_fraction": 0.019472055062311363, '
    b'"skew_estimate": {"mon-a": 0.0, "mon-\\u00e9": 0.0}, "monitors": '
    b'{"mon-a": {"connected": true, "connections": 1, "slots_received": 4, '
    b'"stale_slots": 0, "last_cell": 7}, "mon-\\u00e9": {"connected": '
    b'false, "connections": 1, "slots_received": 4, "stale_slots": 0, '
    b'"last_cell": 7}}, "links": ["link0"]}'
)


class TestCompatibility:
    @pytest.mark.parametrize(
        "fill_gaps, golden", [(True, GOLDEN_FILLED), (False, GOLDEN_HOLES)]
    )
    def test_old_client_gets_the_parents_bytes_plus_one_key(
        self, fill_gaps, golden
    ):
        """A QUERY that names no cell: today's reply and `since_cell`."""
        with ServiceHandle(CollectorService(fill_gaps=fill_gaps, k=8)) as live:
            stayer = stream_golden(live.address)
            query = encode_json_frame(KIND_QUERY, {"link": None})
            ((kind, payload),) = raw_exchange(live.address, query)
            stayer.close()
        assert kind == KIND_REPLY
        new_key = b'"since_cell": 3, '
        assert payload.count(new_key) == 1
        assert payload.replace(new_key, b"") == golden

    def test_new_client_takes_an_old_daemons_reply_as_full(self, monkeypatch):
        """No `since_cell` in the reply: nothing is stitched under it."""
        current = LiveCollector.query

        def parent_query(self, link=None, since_cell=None):
            report = current(self, link)
            del report["since_cell"]
            return report

        monkeypatch.setattr(LiveCollector, "query", parent_query)
        with ServiceHandle(CollectorService()) as live:
            client = MonitorClient(live.address, "mon-a")
            for count, summary in enumerate(tiny_run(range(5)), start=1):
                client.publish(summary)
                report = client.query()
                assert "since_cell" not in report
                assert report == query_service(live.address)
                assert len(report["elephants_by_slot"]) == count
            polled = query_service(live.address, since_cell=3)
            assert polled == query_service(live.address)
            client.close()


class FrameSizes:
    """The payload size of every frame a client reads, in order."""

    def __init__(self, client):
        self.sizes = []
        read = client._frames.next_frame

        def next_frame():
            kind, payload = read()
            self.sizes.append(len(payload))
            return kind, payload

        client._frames.next_frame = next_frame


class TestWhatTheClientRetains:
    def test_a_second_query_costs_what_was_sealed_since(self):
        """2 000 sealed slots: asked again, the daemon lists none."""
        service = CollectorService()
        collector = service.collector
        collector.attach("mon-a", DEFAULT_LINK)
        for summary in tiny_run(range(2000), elephants=12):
            collector.add_summary("mon-a", DEFAULT_LINK, summary)
        collector.detach("mon-a", DEFAULT_LINK, clean=True)
        with ServiceHandle(service) as live:
            client = MonitorClient(live.address, "reader")
            frames = FrameSizes(client)
            first = client.query()
            second = client.query()
            assert first["slots"] == 2000
            assert all(len(slot) == 10 for slot in first["elephants_by_slot"])
            assert second == first == query_service(live.address)
            # what travelled the second time: no slot, 1% of the bytes
            asked_again = query_service(
                live.address, since_cell=first["next_cell"]
            )
            assert asked_again["elephants_by_slot"] == []
            assert frames.sizes[1] < 0.01 * frames.sizes[0]
            client.close()

    def test_the_report_is_the_callers_to_keep(self):
        """Appending to a returned list does not reach the next one."""
        with ServiceHandle(CollectorService()) as live:
            client = MonitorClient(live.address, "mon-a")
            run = tiny_run(range(4))
            for summary in run[:2]:
                client.publish(summary)
            first = client.query()
            first["elephants_by_slot"].append("scribble")
            for summary in run[2:]:
                client.publish(summary)
            assert client.query() == query_service(live.address)
            client.close()

    def test_each_link_has_its_own_history(self):
        with ServiceHandle(CollectorService()) as live:
            east = MonitorClient(live.address, "mon-a", link="east")
            west = MonitorClient(live.address, "mon-b", link="west")
            for index, summary in enumerate(tiny_run(range(10, 16))):
                east.publish(summary)
                if index % 2:
                    west.publish(tiny_run((index,), "mon-b")[0])
                    west.drain()
                for link in ("east", "west", "east"):
                    assert east.query(link) == query_service(
                        live.address, link=link
                    )
            assert east.query("west")["slots"] == 5  # 1..5, two gaps
            east.close()
            west.close()

    def test_stateless_restart_is_never_stitched_under(self):
        """A daemon with no state dir dies and comes back on its port
        under a retrying client: the answer is the new daemon's
        history. The old slots must not survive under it — the new
        link's first cell is exactly the cell the client would ask
        from, so the collector cannot tell, only the redial can."""
        run = tiny_run(range(6))
        first = ServiceHandle(CollectorService()).start()
        host, port = first.address
        client = MonitorClient(
            first.address, "mon-a", retries=40, backoff=0.02, backoff_cap=0.1
        )
        try:
            for summary in run[:3]:
                client.publish(summary)
            before = client.query()
            assert (before["slots"], before["next_cell"]) == (3, 3)
            first.stop()
            with ServiceHandle(CollectorService(host=host, port=port)) as live:
                for summary in run[3:]:
                    client.publish(summary)
                after = client.query()
                assert client.reconnects >= 1
                assert after == query_service(live.address)
                assert (after["slots"], after["since_cell"]) == (3, 3)
                again = CollectorService().collector
                again.attach("mon-a", DEFAULT_LINK)
                for summary in run[3:]:
                    again.add_summary("mon-a", DEFAULT_LINK, summary)
                replayed = again.query()["elephants_by_slot"]
                assert after["elephants_by_slot"] == replayed
                client.close()
        finally:
            client.abort()
            first.stop()


class TestEnsureConnected:
    def test_the_probe_asks_an_empty_question(self, tmp_path):
        """After a restart on restored history the probe lists nothing
        — it used to fetch every restored slot, once per monitor — and
        leaves what query() retains alone."""
        state = str(tmp_path / "state")
        run = tiny_run(range(60), elephants=8)
        first = ServiceHandle(CollectorService(state_dir=state)).start()
        host, port = first.address
        client = MonitorClient(
            first.address, "mon-a", retries=40, backoff=0.02, backoff_cap=0.1
        )
        try:
            for summary in run[:50]:
                client.publish(summary)
            assert client.query()["slots"] == 50
            first.stop()
            restarted = CollectorService(host=host, port=port, state_dir=state)
            with ServiceHandle(restarted) as live:
                assert client.ensure_connected() == 50
                assert client.reconnects >= 1
                frames = FrameSizes(client)
                assert client.ensure_connected() == 50
                whole = client.query()
                assert whole == query_service(live.address)
                assert whole["slots"] == 50
                assert frames.sizes[0] < 0.1 * frames.sizes[1]
                # a probe between two queries changes neither
                for summary in run[50:]:
                    client.publish(summary)
                client.ensure_connected()
                assert client.query() == query_service(live.address)
                assert frames.sizes[-1] < 0.5 * frames.sizes[1]
                client.close()
        finally:
            client.abort()
            first.stop()


HOSTILE_CELLS = [
    b'"abc"',
    b"1.5",
    b"1.0",
    b"true",
    b"[]",
    b"{}",
    b"-1",
    b"9223372036854775808",  # 2 ** 63
    b"NaN",
]


class TestHostileCell:
    @pytest.fixture(scope="class")
    def live(self):
        with ServiceHandle(CollectorService()) as handle:
            stream_golden(handle.address).close()
            yield handle

    def refusal(self, live, cell):
        """The one frame a QUERY with this ``since_cell`` text earns."""
        payload = b'{"link": null, "since_cell": ' + cell + b"}"
        query = encode_frame(KIND_QUERY, payload)
        ((kind, reply),) = raw_exchange(live.address, query)
        assert kind == KIND_ERROR
        # ...and the daemon serves on
        assert query_service(live.address)["slots"] == 5
        return decode_json(reply)["error"]

    @pytest.mark.parametrize("cell", HOSTILE_CELLS)
    def test_one_error_frame_and_the_daemon_serves_on(self, live, cell):
        error = self.refusal(live, cell)
        assert error == "since_cell must be a non-negative integer cell"

    @pytest.mark.parametrize(
        "cell", [b"1" * 5000, b"[" * 100_000], ids=["digits", "nesting"]
    )
    def test_json_the_parser_gives_up_on_is_a_format_error(self, live, cell):
        """Neither is a ``JSONDecodeError``: a ``ValueError`` past the
        interpreter's integer digit limit, a ``RecursionError``."""
        assert "invalid JSON" in self.refusal(live, cell)

    def test_the_largest_cell_is_a_cell(self, live):
        report = query_service(live.address, since_cell=(1 << 63) - 1)
        assert report == query_service(live.address)

    def test_query_service_raises_what_the_daemon_said(self, live):
        with pytest.raises(ServiceProtocolError, match="non-negative integer"):
            query_service(live.address, since_cell=-1)


class TestFrameLimit:
    def test_the_wall_names_the_cure_and_the_cursor(self, monkeypatch):
        """A history that no longer fits one frame is still readable:
        the error says how, and asking for less works."""
        with ServiceHandle(CollectorService()) as live:
            client = MonitorClient(live.address, "mon-a")
            for summary in tiny_run(range(100, 160), elephants=8):
                client.publish(summary)
            client.close()
            whole = query_service(live.address)
            monkeypatch.setattr(framing, "MAX_PAYLOAD_BYTES", 8192)
            with pytest.raises(ServiceProtocolError) as refused:
                query_service(live.address)
            message = str(refused.value)
            assert "exceeds the 8192-byte frame limit" in message
            assert "ask for less: since_cell" in message
            assert "repro query --since-cell CELL" in message
            assert message.endswith("this link's next_cell is 160")
            # the cursor it named answers, and so does any cell whose
            # suffix of the history fits
            latest = query_service(live.address, since_cell=160)
            assert latest["elephants_by_slot"] == []
            assert latest["elephants"] == whole["elephants"]
            recent = query_service(live.address, since_cell=150)
            last_ten = whole["elephants_by_slot"][50:]
            assert recent["elephants_by_slot"] == last_ten
            assert recent["series"] == whole["series"]
            with pytest.raises(ServiceProtocolError, match="ask for less"):
                query_service(live.address, since_cell=101)
