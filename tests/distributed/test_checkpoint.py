"""Durable collector state: WAL append, compaction, torn-tail restore.

The store's contract is the kill-safety invariant: every record whose
``append`` returned is recoverable by a fresh process, whatever byte
the previous process died on — mid-append (torn tail), mid-compaction
(temp file + rename), or cleanly. Service-level restart equivalence is
asserted in ``test_chaos.py``; here the store is exercised directly.
"""

import numpy as np
import pytest

from repro.distributed import CheckpointStore, SlotSummary
from repro.distributed.checkpoint import (
    SNAPSHOT_NAME,
    WAL_NAME,
    decode_seal,
    encode_seal,
)
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
    return {
        link: [record.to_bytes() for record in run]
        for link, run in store.sealed.items()
    }


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


class TestCheckpointStore:
    def test_append_then_restore(self, tmp_path):
        with CheckpointStore(tmp_path) as store:
            for cell in range(3):
                store.append("east", summary(cell))
            store.append("west", summary(0, monitor="mon-b"))
            before = wire(store)
        with CheckpointStore(tmp_path) as restored:
            assert wire(restored) == before
            assert restored.records == 4
            assert not restored.recovered_torn_tail

    def test_unclosed_store_survives_a_kill(self, tmp_path):
        # no close, no compaction: the fsynced WAL alone must carry
        # everything an acked append promised
        store = CheckpointStore(tmp_path, compact_every=1000)
        for cell in range(5):
            store.append("l", summary(cell))
        assert (tmp_path / WAL_NAME).stat().st_size > 0
        with CheckpointStore(tmp_path) as restored:
            assert wire(restored) == wire(store)

    def test_auto_compaction_folds_the_wal(self, tmp_path):
        store = CheckpointStore(tmp_path, compact_every=2)
        store.append("l", summary(0))
        assert (tmp_path / WAL_NAME).stat().st_size > 0
        store.append("l", summary(1))  # hits the threshold
        assert (tmp_path / WAL_NAME).stat().st_size == 0
        assert (tmp_path / SNAPSHOT_NAME).stat().st_size > 0
        with CheckpointStore(tmp_path) as restored:
            assert wire(restored) == wire(store)

    def test_torn_wal_tail_recovers_to_last_complete_record(
        self, tmp_path
    ):
        store = CheckpointStore(tmp_path, compact_every=1000)
        for cell in range(3):
            store.append("l", summary(cell))
        store.close()
        wal = tmp_path / WAL_NAME
        # the kill landed mid-write: the last record loses its tail
        wal.write_bytes(wal.read_bytes()[:-7])
        restored = CheckpointStore(tmp_path)
        assert restored.recovered_torn_tail
        assert [r.slot for r in restored.sealed["l"]] == [0, 1]
        # restore compacted: the torn bytes are gone for good, and
        # fresh appends land on a clean WAL
        assert wal.stat().st_size == 0
        restored.append("l", summary(2))
        restored.close()
        with CheckpointStore(tmp_path) as again:
            assert [r.slot for r in again.sealed["l"]] == [0, 1, 2]
            assert not again.recovered_torn_tail

    def test_corrupt_byte_mid_wal_salvages_the_prefix(self, tmp_path):
        store = CheckpointStore(tmp_path, compact_every=1000)
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
        assert [r.slot for r in restored.sealed["l"]] == [0]

    def test_torn_snapshot_tail_recovers_too(self, tmp_path):
        store = CheckpointStore(tmp_path, compact_every=2)
        store.append("l", summary(0))
        store.append("l", summary(1))  # compacts into the snapshot
        store.close()
        snap = tmp_path / SNAPSHOT_NAME
        snap.write_bytes(snap.read_bytes()[:-1])
        restored = CheckpointStore(tmp_path)
        assert restored.recovered_torn_tail
        assert [r.slot for r in restored.sealed["l"]] == [0]

    def test_empty_state_dir_is_a_clean_slate(self, tmp_path):
        with CheckpointStore(tmp_path / "new") as store:
            assert store.sealed == {}
            assert store.records == 0
            assert not store.recovered_torn_tail

    def test_links_restore_in_insertion_order_per_link(self, tmp_path):
        store = CheckpointStore(tmp_path, compact_every=3)
        for cell in range(6):  # crosses a compaction boundary
            store.append("l", summary(cell))
        store.close()
        with CheckpointStore(tmp_path) as restored:
            assert [r.slot for r in restored.sealed["l"]] == list(
                range(6)
            )


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
        with CheckpointStore(tmp_path, compact_every=100) as store:
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
            # restore folded the WAL into a snapshot a parent reads
            # back: the same three frames, grouped by link
            assert len(store.snapshot_path.read_bytes()) == len(GOLDEN_WAL)
