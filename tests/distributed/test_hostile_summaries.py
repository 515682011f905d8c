"""Damaged summary records: a parse error, never a crash.

A collector reads summaries off sockets, and a merge builds derived
summaries without repeating the checks their inputs passed. So what
crosses the wire is held to the outside edge here: seeded byte flips
and truncations of version-1 and version-2 ``SlotSummary`` records, and
of ``KIND_SUMMARY`` frames through ``FrameDecoder`` and
``decode_summary``. Whatever parses is merged with the record it was
damaged from, cut to ``k`` and fed to a ``LinkMerge``. A collector also
reads its own sealed-slot log back at a restart, so the same damage
lands on a two-link checkpoint log, opened by a ``CheckpointStore`` and
rebuilt into a ``LiveCollector``. Only ``ReproError`` may escape any of
it.
"""

import shutil
import struct

import numpy as np
import pytest

from repro.distributed import (
    CheckpointStore,
    FrameDecoder,
    LinkMerge,
    SlotSummary,
    encode_summary,
    merge_summaries,
)
from repro.distributed.checkpoint import LEGACY_SNAPSHOT_NAME, WAL_NAME
from repro.distributed.framing import KIND_SUMMARY, decode_summary
from repro.distributed.service import LiveCollector
from repro.errors import ReproError
from repro.net.prefix import Prefix

CASES = 2000
SEED = 36
HEADER = struct.Struct(">4sHqddddIH")
HEADER_V1 = struct.Struct(">4sHqdddIH")


def record(version):
    """A valid wire record with a few entries and a non-ASCII name."""
    summary = SlotSummary(
        slot=7,
        start=420.0,
        slot_seconds=60.0,
        prefixes=[Prefix((10 << 24) | (i << 8), 24) for i in range(6)],
        volumes=np.array([5e6, 1e3, 2.5, 0.0, 7e9, 1e3]),
        residual_bytes=123.0,
        monitor="mon-é",
        sample_rate=1.0 if version == 1 else 10.0,
    )
    payload = summary.to_bytes()
    if version == 2:
        return summary, payload
    fields = HEADER.unpack_from(payload)
    head = HEADER_V1.pack(b"RSUM", 1, *fields[2:6], *fields[7:])
    return summary, head + payload[HEADER.size :]


def damaged(payload, rng):
    """``CASES`` copies of ``payload``: every other one cut short, and
    each with one to four random bytes overwritten."""
    for case in range(CASES):
        data = bytearray(payload)
        if case % 2:
            del data[int(rng.integers(0, len(data))) :]
        for _ in range(int(rng.integers(1, 5))):
            if data:
                data[int(rng.integers(0, len(data)))] = int(
                    rng.integers(0, 256)
                )
        yield bytes(data)


def use(parsed, original):
    """Merge, cut and link what parsed, as a collector would."""
    try:
        merge_summaries([parsed, original], k=3)
    except ReproError:
        pass  # a merge refuses a summary off the original's interval
    parsed.truncated(2)
    link = LinkMerge(k=3)
    link.attach("m")
    try:
        link.add("m", parsed)
    except ReproError:
        return  # off the grid, or out of its range
    link.detach("m")
    list(link.seal())
    link.skew_estimate()


@pytest.mark.parametrize("version", [1, 2])
def test_damaged_records_raise_repro_errors_only(version):
    original, payload = record(version)
    assert SlotSummary.from_bytes(payload).to_bytes() == original.to_bytes()
    rng = np.random.default_rng([SEED, version])
    parsed = 0
    for data in damaged(payload, rng):
        try:
            summary = SlotSummary.from_bytes(data)
        except ReproError:
            continue
        parsed += 1
        use(summary, original)
    assert parsed  # some damage lands where any value is valid


def test_damaged_frames_raise_repro_errors_only():
    original, payload = record(2)
    rng = np.random.default_rng([SEED, 0])
    decoded = 0
    for data in damaged(encode_summary(original), rng):
        decoder = FrameDecoder()
        cut = int(rng.integers(0, len(data) + 1))
        try:
            frames = decoder.feed(data[:cut]) + decoder.feed(data[cut:])
        except ReproError:
            continue
        for kind, body in frames:
            if kind != KIND_SUMMARY:
                continue
            try:
                summary = decode_summary(body)
            except ReproError:
                continue
            decoded += 1
            use(summary, original)
    assert decoded


def test_damaged_checkpoint_logs_raise_repro_errors_only(
    tmp_path, chaos_runs
):
    with CheckpointStore(tmp_path / "log", fsync=False) as store:
        for cell in range(3):
            for link, run in zip(("east", "west"), chaos_runs):
                store.append(link, run[cell])
    rng = np.random.default_rng([SEED, 3])
    state = tmp_path / "state"
    restored = 0
    for case, data in enumerate(damaged(store.wal_path.read_bytes(), rng)):
        shutil.rmtree(state, ignore_errors=True)
        state.mkdir()
        # half the damage is a pre-fold snapshot: the fold reads it
        name = LEGACY_SNAPSHOT_NAME if case % 4 >= 2 else WAL_NAME
        (state / name).write_bytes(data)
        try:
            opened = CheckpointStore(state, fsync=False)
            collector = LiveCollector(checkpoint=opened)
            for link in collector.links:
                collector.query(link)
        except ReproError:
            continue
        restored += opened.records
        # what the open kept is intact: a second open cuts nothing
        with CheckpointStore(state, fsync=False) as again:
            assert not again.recovered_torn_tail
            assert again.records == opened.records
    assert restored  # some damage leaves records to restore
