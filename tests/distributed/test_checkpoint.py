"""Durable collector state: one append-only log, torn-tail restore.

The store's contract is the kill-safety invariant: every record whose
``append`` returned is recoverable by a fresh process, whatever byte
the previous process died on — mid-append (torn tail), mid-fold of a
legacy snapshot (temp file + rename + unlink), or cleanly. Opening
rewrites nothing but a torn tail, which it cuts off. Service-level
restart equivalence is asserted in ``test_chaos.py``; here the store
is exercised directly.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.distributed import CheckpointStore, SlotSummary
from repro.distributed.checkpoint import (
    LEGACY_SNAPSHOT_NAME,
    WAL_NAME,
    decode_seal,
    encode_seal,
)
from repro.distributed.framing import (
    KIND_SUMMARY,
    encode_frame,
    encode_summary,
)
from repro.distributed.service import LiveCollector
from repro.errors import SummaryFormatError

SLOT_SECONDS = 10.0


def summary(cell, monitor="mon-a", volume=600.0):
    return SlotSummary(
        slot=cell,
        start=cell * SLOT_SECONDS,
        slot_seconds=SLOT_SECONDS,
        prefixes=(),
        volumes=np.zeros(0),
        residual_bytes=volume,
        monitor=monitor,
    )


def wire(store):
    """What ``store`` read at open: the records an earlier one wrote."""
    return {
        link: [record.to_bytes() for record in run]
        for link, run in store.restored.items()
    }


def appended(store, link, cells):
    """Append one ``summary`` per cell; their records, as ``wire``'s."""
    for cell in cells:
        store.append(link, summary(cell))
    return {link: [summary(cell).to_bytes() for cell in cells]}


class TestSealRecord:
    def test_round_trip(self):
        record = summary(3, volume=1234.5)
        frame = encode_seal("backbone", record)
        link, decoded = decode_seal(frame[5:])  # strip frame header
        assert link == "backbone"
        assert decoded.to_bytes() == record.to_bytes()

    def test_oversized_link_name_is_refused(self):
        with pytest.raises(SummaryFormatError, match="too long"):
            encode_seal("x" * 70000, summary(0))

    def test_truncated_payload_is_refused(self):
        with pytest.raises(SummaryFormatError, match="link"):
            decode_seal(b"\x00")
        with pytest.raises(SummaryFormatError, match="link name"):
            decode_seal(b"\x00\x09abc")

    def test_undecodable_link_name_is_refused(self):
        payload = encode_seal("link-ü", summary(0))[5:]
        damaged = payload[:6] + b"\xff" + payload[7:]  # ü's first byte
        with pytest.raises(SummaryFormatError, match="link name"):
            decode_seal(damaged)


class TestCheckpointStore:
    def test_append_then_restore(self, tmp_path):
        with CheckpointStore(tmp_path) as store:
            before = appended(store, "east", range(3))
            store.append("west", summary(0, monitor="mon-b"))
            before["west"] = [summary(0, monitor="mon-b").to_bytes()]
            assert store.restored == {}  # appends only write
            assert store.records == 4
        with CheckpointStore(tmp_path) as restored:
            assert wire(restored) == before
            assert restored.records == 4
            assert not restored.recovered_torn_tail

    def test_unclosed_store_survives_a_kill(self, tmp_path):
        # no close: the fsynced log alone must carry everything an
        # acked append promised
        store = CheckpointStore(tmp_path)
        before = appended(store, "l", range(5))
        assert (tmp_path / WAL_NAME).stat().st_size > 0
        with CheckpointStore(tmp_path) as restored:
            assert wire(restored) == before

    def test_torn_wal_tail_recovers_to_last_complete_record(
        self, tmp_path
    ):
        store = CheckpointStore(tmp_path)
        for cell in range(3):
            store.append("l", summary(cell))
        store.close()
        wal = tmp_path / WAL_NAME
        whole = wal.read_bytes()
        # the kill landed mid-write: the last record loses its tail
        wal.write_bytes(whole[:-7])
        restored = CheckpointStore(tmp_path)
        assert restored.recovered_torn_tail
        assert [r.slot for r in restored.restored["l"]] == [0, 1]
        # restore cut the log after its last intact record: the torn
        # bytes are gone for good, and fresh appends land after it
        intact = len(whole) - len(encode_seal("l", summary(2)))
        assert wal.read_bytes() == whole[:intact]
        restored.append("l", summary(2))
        restored.close()
        assert wal.read_bytes() == whole
        with CheckpointStore(tmp_path) as again:
            assert [r.slot for r in again.restored["l"]] == [0, 1, 2]
            assert not again.recovered_torn_tail

    def test_corrupt_byte_mid_wal_salvages_the_prefix(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for cell in range(3):
            store.append("l", summary(cell))
        store.close()
        wal = tmp_path / WAL_NAME
        data = bytearray(wal.read_bytes())
        record = len(data) // 3
        data[record] ^= 0xFF  # second record's kind tag
        wal.write_bytes(bytes(data))
        restored = CheckpointStore(tmp_path)
        assert restored.recovered_torn_tail
        assert [r.slot for r in restored.restored["l"]] == [0]
        assert wal.read_bytes() == bytes(data[:record])

    def test_a_whole_frame_of_another_kind_ends_the_log(self, tmp_path):
        """A well-formed wire frame that is not a seal record is where
        the log stops: the records before it restore, and open cuts it
        and everything after it."""
        with CheckpointStore(tmp_path) as store:
            store.append("l", summary(0))
        wal = tmp_path / WAL_NAME
        intact = wal.read_bytes()
        stray = encode_frame(KIND_SUMMARY, encode_summary(summary(1)))
        wal.write_bytes(intact + stray + encode_seal("l", summary(2)))
        with CheckpointStore(tmp_path) as restored:
            assert restored.recovered_torn_tail
            assert [r.slot for r in restored.restored["l"]] == [0]
        assert wal.read_bytes() == intact

    def test_empty_state_dir_is_a_clean_slate(self, tmp_path):
        with CheckpointStore(tmp_path / "new") as store:
            assert store.restored == {}
            assert store.records == 0
            assert not store.recovered_torn_tail

    def test_links_restore_in_insertion_order_per_link(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for cell in range(6):
            store.append("l", summary(cell))
        store.close()
        with CheckpointStore(tmp_path) as restored:
            assert [r.slot for r in restored.restored["l"]] == list(
                range(6)
            )

    def test_a_record_on_another_grid_refuses_the_log(self, tmp_path):
        """Frames carry no checksum, so the store cannot tell which of
        two grids is the damaged one: it names the record, cuts nothing,
        and opens once the log is cut at the byte it named."""
        off_grid = SlotSummary(
            slot=1,
            start=SLOT_SECONDS,
            slot_seconds=10.000000000000016,
            prefixes=(),
            volumes=np.zeros(0),
            residual_bytes=600.0,
            monitor="mon-a",
        )
        with CheckpointStore(tmp_path) as store:
            store.append("l", summary(0))
            store.append("l", off_grid)
        wal = tmp_path / WAL_NAME
        log = wal.read_bytes()
        second = len(encode_seal("l", summary(0)))
        with pytest.raises(SummaryFormatError) as refused:
            CheckpointStore(tmp_path)
        message = str(refused.value)
        assert str(wal) in message
        named = f"at byte {second} puts link 'l' on a 10.000000000000016s"
        assert named in message
        assert wal.read_bytes() == log
        # a parent's snapshot holding the record is refused the same way,
        # and the fold leaves the directory as it found it
        wal.rename(tmp_path / LEGACY_SNAPSHOT_NAME)
        with pytest.raises(SummaryFormatError, match=f"at byte {second} "):
            CheckpointStore(tmp_path)
        assert [path.name for path in tmp_path.iterdir()] == [
            LEGACY_SNAPSHOT_NAME
        ]
        (tmp_path / LEGACY_SNAPSHOT_NAME).rename(wal)
        wal.write_bytes(log[:second])
        with CheckpointStore(tmp_path) as cut:
            assert wire(cut) == {"l": [summary(0).to_bytes()]}


def traffic(reply):
    """A reply's facts about traffic, which a restart must keep."""
    connections = ("monitors", "skew_estimate")
    return {
        key: value for key, value in reply.items() if key not in connections
    }


def answers(collector):
    """Every link's ``traffic``."""
    return {link: traffic(collector.query(link)) for link in collector.links}


class TestRepeatedRecords:
    """A link's sealed cells strictly increase; restore keeps them so."""

    def test_a_repeated_or_earlier_record_is_dropped_per_link(
        self, tmp_path
    ):
        order = [("a", 0), ("a", 1), ("b", 0), ("a", 1), ("a", 0)]
        with CheckpointStore(tmp_path) as store:
            for link, cell in order + [("b", 1), ("a", 2)]:
                store.append(link, summary(cell))
        log = (tmp_path / WAL_NAME).read_bytes()
        with CheckpointStore(tmp_path) as restored:
            slots = {
                link: [record.slot for record in run]
                for link, run in restored.restored.items()
            }
            assert slots == {"a": [0, 1, 2], "b": [0, 1]}
            assert restored.records == 5
            assert not restored.recovered_torn_tail
        assert (tmp_path / WAL_NAME).read_bytes() == log  # not rewritten

    def test_the_parents_compaction_crash_window_restores_once(
        self, tmp_path, chaos_runs
    ):
        """The parent died between renaming its new snapshot into place
        and emptying its WAL: both files hold the same 5 records."""
        live = LiveCollector(checkpoint=CheckpointStore(tmp_path))
        live.attach("mon-a", "l")
        for one in chaos_runs[0][:5]:
            live.add_summary("mon-a", "l", one)
        live.checkpoint.close()
        log = (tmp_path / WAL_NAME).read_bytes()
        (tmp_path / LEGACY_SNAPSHOT_NAME).write_bytes(log)
        restarted = LiveCollector(checkpoint=CheckpointStore(tmp_path))
        reply = restarted.query("l")
        assert (reply["slots"], reply["next_cell"]) == (5, 5)
        assert traffic(reply) == traffic(live.query("l"))
        assert [path.name for path in tmp_path.iterdir()] == [WAL_NAME]
        assert (tmp_path / WAL_NAME).read_bytes() == log


class TestKillPoints:
    """A kill at any byte of the log's last frame loses that record
    only, and the monitor's replay of it rewrites the same log."""

    def test_every_cut_of_the_last_frame(self, tmp_path, chaos_runs):
        feeds = {"east": "mon-a", "west": "mon-b"}  # link -> its monitor
        runs = dict(zip(feeds, chaos_runs))
        live = LiveCollector(
            checkpoint=CheckpointStore(tmp_path / "live", fsync=False)
        )
        crash_free, ends = {}, {}
        for link, monitor in feeds.items():
            live.attach(monitor, link)
        for cells in zip(*runs.values()):
            for (link, monitor), one in zip(feeds.items(), cells):
                live.add_summary(monitor, link, one)
                records = live.checkpoint.records
                crash_free[records] = answers(live)
                ends[records] = live.checkpoint.wal_path.stat().st_size
        live.checkpoint.close()
        whole = live.checkpoint.wal_path.read_bytes()
        last = live.checkpoint.records
        intact = ends[last - 1]
        assert ends[last] == len(whole) and last == 2 * len(runs["west"])
        state = tmp_path / "restart"
        state.mkdir()
        wal = state / WAL_NAME
        for cut in range(intact, len(whole)):
            wal.write_bytes(whole[:cut])
            store = CheckpointStore(state, fsync=False)
            assert store.recovered_torn_tail == (cut > intact)
            restarted = LiveCollector(checkpoint=store)
            assert answers(restarted) == crash_free[last - 1], cut
            # the last record was never acked: its monitor replays it,
            # and the seal lands right after the intact records
            resume = restarted.attach("mon-b", "west")
            assert resume == len(runs["west"]) - 1
            restarted.add_summary("mon-b", "west", runs["west"][resume])
            assert answers(restarted) == crash_free[last]
            store.close()
            assert wal.read_bytes() == whole
            with CheckpointStore(state, fsync=False) as reopened:
                assert not reopened.recovered_torn_tail
                assert reopened.records == last


class TestHandOver:
    def test_a_restarted_collector_keeps_no_restored_run(
        self, tmp_path, chaos_runs
    ):
        live = LiveCollector(checkpoint=CheckpointStore(tmp_path))
        live.attach("mon-a", "l")
        for one in chaos_runs[0]:
            live.add_summary("mon-a", "l", one)
        live.detach("mon-a", "l", clean=True)
        live.checkpoint.close()
        store = CheckpointStore(tmp_path)
        run = store.restored["l"]
        assert len(run) == len(chaos_runs[0])
        probes = [weakref.ref(merged) for merged in run]
        del run
        restarted = LiveCollector(checkpoint=store)
        gc.collect()
        assert store.restored == {}
        assert [probe() for probe in probes] == [None] * len(probes)
        expected = live.query("l")["elephants_by_slot"]
        assert restarted.query("l")["elephants_by_slot"] == expected
        store.close()


# -- golden bytes, recorded from the parent commit ---------------------

#: ``encode_seal("link-ü", golden_run[0])`` and the WAL left by
#: appending ``golden_run`` (conftest.py) to links link0, link1, link0
#: — as written before summaries held columns.
GOLDEN_SEAL = bytes.fromhex(
    "4c0000007700076c696e6b2dc3bc5253554d000200000000000000034066800000000000"
    "404e00000000000040c81cc00000000040490000000000000000000400066d6f6e2dc3a9"
    "0a000000c0a8040000000000cb0071070816002040977000000000000000000000000000"
    "41e2a05f200000004050080000000000"
)
GOLDEN_WAL = bytes.fromhex(
    "4c0000007500056c696e6b305253554d000200000000000000034066800000000000404e"
    "00000000000040c81cc00000000040490000000000000000000400066d6f6e2dc3a90a00"
    "0000c0a8040000000000cb007107081600204097700000000000000000000000000041e2"
    "a05f2000000040500800000000004c0000004100056c696e6b315253554d000200000000"
    "00000004406e000000000000404e00000000000000000000000000003ff0000000000000"
    "0000000000066d6f6e2dc3a94c0000005b00056c696e6b305253554d0002000000000000"
    "00064076800000000000404e0000000000003ff00000000000003ff00000000000000000"
    "000200066d6f6e2dc3a9ac1000000a0000000c08401c0000000000003f50624dd2f1a9fc"
)


class TestGoldenBytes:
    """A daemon upgraded in place keeps its state directory."""

    def test_seal_frame_is_the_parents(self, golden_run):
        assert encode_seal("link-ü", golden_run[0]) == GOLDEN_SEAL
        link, decoded = decode_seal(GOLDEN_SEAL[5:])
        assert link == "link-ü"
        assert decoded.to_bytes() == golden_run[0].to_bytes()

    def test_appends_write_the_parents_wal(self, golden_run, tmp_path):
        links = ("link0", "link1", "link0")
        with CheckpointStore(tmp_path) as store:
            for link, record in zip(links, golden_run):
                store.append(link, record)
            assert store.wal_path.read_bytes() == GOLDEN_WAL

    def test_the_parents_wal_restores(self, golden_run, tmp_path):
        (tmp_path / WAL_NAME).write_bytes(GOLDEN_WAL)
        first, second, third = golden_run
        with CheckpointStore(tmp_path) as store:
            assert not store.recovered_torn_tail
            assert wire(store) == {
                "link0": [first.to_bytes(), third.to_bytes()],
                "link1": [second.to_bytes()],
            }
        # restore read the log and rewrote nothing
        assert store.wal_path.read_bytes() == GOLDEN_WAL

    def test_the_parents_clean_stop_layout_folds_into_one_log(
        self, golden_run, tmp_path
    ):
        # a parent's clean stop left every record in its snapshot
        (tmp_path / LEGACY_SNAPSHOT_NAME).write_bytes(GOLDEN_WAL)
        (tmp_path / WAL_NAME).write_bytes(b"")
        first, second, third = golden_run
        with CheckpointStore(tmp_path) as store:
            assert not store.recovered_torn_tail
            assert wire(store) == {
                "link0": [first.to_bytes(), third.to_bytes()],
                "link1": [second.to_bytes()],
            }
        assert [path.name for path in tmp_path.iterdir()] == [WAL_NAME]
        assert (tmp_path / WAL_NAME).read_bytes() == GOLDEN_WAL

    def test_a_torn_legacy_snapshot_folds_its_intact_records(
        self, golden_run, tmp_path
    ):
        # the parent's snapshot tears inside the golden log's third
        # frame, which its WAL holds whole
        third = encode_seal("link0", golden_run[2])
        assert GOLDEN_WAL.endswith(third)
        (tmp_path / LEGACY_SNAPSHOT_NAME).write_bytes(GOLDEN_WAL[:-9])
        (tmp_path / WAL_NAME).write_bytes(third)
        with CheckpointStore(tmp_path) as store:
            assert store.recovered_torn_tail
            assert store.records == 3
        assert [path.name for path in tmp_path.iterdir()] == [WAL_NAME]
        assert (tmp_path / WAL_NAME).read_bytes() == GOLDEN_WAL
