"""Tests for the per-slot summary wire formats."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import SlotSummary, load_summaries, save_summaries
from repro.distributed.summary import MAGIC, VERSION
from repro.errors import (
    ClassificationError,
    ReproError,
    SummaryFormatError,
)
from repro.net.prefix import Prefix
from repro.pipeline import RESIDUAL_PREFIX
from repro.pipeline.sources import SlotFrame


def summary(
    slot=0,
    entries=(("10.0.0.0/16", 1000.0), ("10.1.0.0/16", 500.0)),
    residual=25.0,
    monitor="mon-a",
    start=None,
):
    prefixes = tuple(Prefix.parse(p) for p, _ in entries)
    volumes = np.array([v for _, v in entries])
    return SlotSummary(
        slot=slot,
        start=slot * 60.0 if start is None else start,
        slot_seconds=60.0,
        prefixes=prefixes,
        volumes=volumes,
        residual_bytes=residual,
        monitor=monitor,
    )


class TestValidation:
    def test_rejects_length_mismatch(self):
        with pytest.raises(ClassificationError):
            SlotSummary(
                0,
                0.0,
                60.0,
                (Prefix.parse("10.0.0.0/16"),),
                np.array([1.0, 2.0]),
            )

    def test_rejects_duplicates(self):
        prefix = Prefix.parse("10.0.0.0/16")
        with pytest.raises(ClassificationError):
            SlotSummary(0, 0.0, 60.0, (prefix, prefix), np.array([1.0, 2.0]))

    def test_rejects_negative_volumes(self):
        with pytest.raises(ClassificationError):
            SlotSummary(
                0, 0.0, 60.0, (Prefix.parse("10.0.0.0/16"),), np.array([-1.0])
            )
        with pytest.raises(ClassificationError):
            summary(residual=-0.5)

    def test_rejects_bad_grid(self):
        with pytest.raises(ClassificationError):
            SlotSummary(0, 0.0, 0.0, (), np.zeros(0))

    def test_total_bytes(self):
        assert summary().total_bytes == pytest.approx(1525.0)


#: Where each float64 sits in a version-2 record: the header is magic
#: (4 bytes), version (2), slot (8), then start, slot_seconds,
#: residual_bytes and sample_rate; the volume table ends the record.
WIRE_OFFSETS = {
    "start": 14,
    "slot_seconds": 22,
    "residual_bytes": 30,
    "sample_rate": 38,
    "volumes": -8,
}


class TestHostileRecords:
    """NaN/inf fields and undecodable names are refused at every door.

    The constructor, the wire record and the ``.npz`` artefact alike.
    """

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf")]
    )
    @pytest.mark.parametrize("field", sorted(WIRE_OFFSETS))
    def test_non_finite_field_is_refused(self, field, value):
        fields = {
            "slot": 0,
            "start": 0.0,
            "slot_seconds": 60.0,
            "prefixes": (Prefix.parse("10.0.0.0/16"),),
            "volumes": np.array([1.0]),
        }
        fields[field] = np.array([value]) if field == "volumes" else value
        with pytest.raises(ClassificationError):
            SlotSummary(**fields)
        payload = bytearray(summary().to_bytes())
        offset = WIRE_OFFSETS[field] % len(payload)
        struct.pack_into(">d", payload, offset, value)
        with pytest.raises(SummaryFormatError, match="invalid data"):
            SlotSummary.from_bytes(bytes(payload))

    def test_undecodable_monitor_name_is_a_format_error(self):
        payload = bytearray(summary(monitor="mon-a").to_bytes())
        payload[payload.index(b"mon-a")] = 0xFF  # never valid in UTF-8
        with pytest.raises(SummaryFormatError, match="invalid data"):
            SlotSummary.from_bytes(bytes(payload))

    def test_non_finite_npz_field_is_a_format_error(self, tmp_path):
        path = str(tmp_path / "mon.npz")
        save_summaries(path, [summary()])
        with np.load(path) as archive:
            data = dict(archive)
        data["residuals"] = np.array([float("nan")])
        with open(path, "wb") as stream:
            np.savez(stream, **data)
        with pytest.raises(SummaryFormatError, match="finite"):
            load_summaries(path)

    def test_overflowing_grid_cell_is_refused(self, tmp_path):
        """Finite fields whose cell ``start / slot_seconds`` is not."""
        start, slot_seconds = 1e308, 1e-308
        with pytest.raises(ClassificationError, match="slot grid"):
            SlotSummary(0, start, slot_seconds, (), np.zeros(0))
        payload = bytearray(summary().to_bytes())
        struct.pack_into(">d", payload, WIRE_OFFSETS["start"], start)
        struct.pack_into(
            ">d", payload, WIRE_OFFSETS["slot_seconds"], slot_seconds
        )
        with pytest.raises(SummaryFormatError, match="slot grid"):
            SlotSummary.from_bytes(bytes(payload))
        path = str(tmp_path / "mon.npz")
        save_summaries(path, [summary()])
        with np.load(path) as archive:
            data = dict(archive)
        data["starts"] = np.array([start])
        data["slot_seconds"] = np.float64(slot_seconds)
        with open(path, "wb") as stream:
            np.savez(stream, **data)
        with pytest.raises(SummaryFormatError, match="slot grid"):
            load_summaries(path)


class TestFromFrame:
    def frame(self, rates, residual_row=None):
        tracked = len(rates) - (residual_row is not None)
        population = [Prefix.parse(f"10.{i}.0.0/16") for i in range(tracked)]
        if residual_row is not None:
            population.insert(0, RESIDUAL_PREFIX)
        return SlotFrame(
            slot=3,
            start=180.0,
            rates=np.array(rates, dtype=float),
            population=population,
            residual_row=residual_row,
        )

    def test_zero_rows_dropped(self):
        got = SlotSummary.from_frame(self.frame([8.0, 0.0, 16.0]), 60.0)
        assert got.num_entries == 2
        assert got.residual_bytes == 0.0
        # rates are bits/s: 8 b/s x 60 s = 60 bytes
        assert got.volumes.tolist() == [60.0, 120.0]
        assert got.slot == 3 and got.start == 180.0

    def test_residual_row_split_out(self):
        got = SlotSummary.from_frame(
            self.frame([8.0, 16.0, 0.0], residual_row=0),
            60.0,
            monitor="tap-1",
        )
        assert got.num_entries == 1
        assert got.residual_bytes == 60.0
        assert got.monitor == "tap-1"
        assert RESIDUAL_PREFIX not in got.prefixes

    def test_top_k_spills_into_residual(self):
        got = SlotSummary.from_frame(
            self.frame([8.0, 16.0, 24.0]), 60.0, top_k=1
        )
        assert got.num_entries == 1
        assert got.volumes.tolist() == [180.0]
        assert got.residual_bytes == pytest.approx(180.0)
        assert got.total_bytes == pytest.approx(360.0)


class TestTruncated:
    def test_noop_when_small(self):
        original = summary()
        assert original.truncated(5) is original

    def test_deterministic_tie_break(self):
        tied = SlotSummary(
            0,
            0.0,
            60.0,
            tuple(Prefix.parse(f"10.{i}.0.0/16") for i in range(4)),
            np.array([5.0, 5.0, 5.0, 5.0]),
        )
        got = tied.truncated(2)
        assert [str(p) for p in got.prefixes] == [
            "10.0.0.0/16",
            "10.1.0.0/16",
        ]
        assert got.residual_bytes == 10.0

    def test_rejects_negative_k(self):
        with pytest.raises(ClassificationError):
            summary().truncated(-1)

    def test_cutting_empty_entries_spills_exactly_nothing(self):
        """The spill is the cut entries' own sum, not a difference of
        two sums taken in different orders: when everything cut carried
        zero bytes (a monitor may send such entries) it used to come
        out a few ulps either side of zero — negative raised from the
        constructor, positive grew bytes nobody sent."""
        rng = np.random.default_rng(17)
        for _ in range(300):
            size = int(rng.integers(10, 401))
            keep = int(rng.integers(1, size))
            volumes = np.zeros(size)
            live = rng.permutation(size)[:keep]
            volumes[live] = rng.uniform(1.0, 1e9, keep)
            whole = SlotSummary(
                0,
                0.0,
                60.0,
                [Prefix(row << 8, 24) for row in range(size)],
                volumes,
            )
            cut = whole.truncated(keep)
            assert cut.residual_bytes == 0.0
            assert sorted(cut.volumes.tolist()) == sorted(
                volumes[live].tolist()
            )

    @settings(max_examples=200, deadline=None)
    @given(
        volumes=st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 1e15)), max_size=40
        ),
        residual=st.floats(0.0, 1e15),
        k=st.integers(0, 45),
    )
    def test_truncation_conserves_bytes(self, volumes, residual, k):
        whole = SlotSummary(
            0,
            0.0,
            60.0,
            [Prefix(row << 8, 24) for row in range(len(volumes))],
            np.array(volumes),
            residual_bytes=residual,
        )
        cut = whole.truncated(k)
        assert cut.num_entries == min(k, len(volumes))
        assert cut.residual_bytes >= residual
        assert cut.total_bytes == pytest.approx(whole.total_bytes)
        # the table keeps the k largest, in the order they stood
        kept = set(np.argsort(-np.array(volumes), kind="stable")[:k].tolist())
        assert cut.volumes.tolist() == [
            volume for row, volume in enumerate(volumes) if row in kept
        ]


class TestWireFormat:
    def test_round_trip(self):
        original = summary(slot=7, monitor="pop3.lon")
        got = SlotSummary.from_bytes(original.to_bytes())
        assert got.slot == original.slot
        assert got.start == original.start
        assert got.slot_seconds == original.slot_seconds
        assert got.prefixes == original.prefixes
        assert np.array_equal(got.volumes, original.volumes)
        assert got.residual_bytes == original.residual_bytes
        assert got.monitor == original.monitor

    def test_empty_summary_round_trip(self):
        original = SlotSummary(
            0, 0.0, 60.0, (), np.zeros(0), residual_bytes=12.5
        )
        got = SlotSummary.from_bytes(original.to_bytes())
        assert got.num_entries == 0
        assert got.residual_bytes == 12.5

    def test_bad_magic(self):
        payload = bytearray(summary().to_bytes())
        payload[:4] = b"XXXX"
        with pytest.raises(SummaryFormatError):
            SlotSummary.from_bytes(bytes(payload))

    def test_bad_version(self):
        payload = bytearray(summary().to_bytes())
        payload[4:6] = (VERSION + 1).to_bytes(2, "big")
        with pytest.raises(SummaryFormatError):
            SlotSummary.from_bytes(bytes(payload))

    def test_truncated_record(self):
        payload = summary().to_bytes()
        with pytest.raises(SummaryFormatError):
            SlotSummary.from_bytes(payload[:10])
        with pytest.raises(SummaryFormatError):
            SlotSummary.from_bytes(payload[:-3])

    def test_magic_is_stable(self):
        assert summary().to_bytes()[:4] == MAGIC

    def test_name_too_long_for_its_length_field(self):
        assert summary(monitor="m" * 0xFFFF).to_bytes()
        with pytest.raises(ClassificationError, match="too long"):
            summary(monitor="m" * 0x10000).to_bytes()


class TestNpzFormat:
    def test_round_trip(self, tmp_path):
        run = [summary(slot=i) for i in range(4)]
        path = str(tmp_path / "mon.npz")
        save_summaries(path, run)
        got = load_summaries(path)
        assert len(got) == 4
        for mine, theirs in zip(got, run):
            assert mine.slot == theirs.slot
            assert mine.prefixes == theirs.prefixes
            assert np.array_equal(mine.volumes, theirs.volumes)
            assert mine.residual_bytes == theirs.residual_bytes
            assert mine.monitor == theirs.monitor

    def test_empty_slots_survive(self, tmp_path):
        run = [
            summary(slot=0),
            SlotSummary(
                1,
                60.0,
                60.0,
                (),
                np.zeros(0),
                residual_bytes=3.0,
                monitor="mon-a",
            ),
        ]
        path = str(tmp_path / "mon.npz")
        save_summaries(path, run)
        got = load_summaries(path)
        assert got[1].num_entries == 0
        assert got[1].residual_bytes == 3.0

    def test_rejects_empty_run(self, tmp_path):
        with pytest.raises(ClassificationError):
            save_summaries(str(tmp_path / "mon.npz"), [])

    def test_rejects_mixed_grids(self, tmp_path):
        odd = SlotSummary(1, 30.0, 30.0, (), np.zeros(0))
        with pytest.raises(ClassificationError):
            save_summaries(str(tmp_path / "mon.npz"), [summary(slot=0), odd])

    def test_rejects_two_summaries_for_one_grid_cell(self, tmp_path):
        """Slot numbers in order, yet slots 1 and 2 both start at 60 s:
        one error at write time, not a file only a merge refuses."""
        run = [summary(slot=0), summary(slot=1), summary(slot=2, start=60.0)]
        with pytest.raises(ClassificationError, match="grid cell 1"):
            save_summaries(str(tmp_path / "mon.npz"), run)
        assert not (tmp_path / "mon.npz").exists()

    def test_rejects_unordered_slots(self, tmp_path):
        with pytest.raises(ClassificationError):
            save_summaries(
                str(tmp_path / "mon.npz"), [summary(slot=2), summary(slot=1)]
            )

    def test_extensionless_path_written_verbatim(self, tmp_path):
        # numpy appends ".npz" to bare string paths; the writer must
        # produce exactly the file the caller named (and will reload)
        path = str(tmp_path / "monitor.dat")
        save_summaries(path, [summary()])
        assert (tmp_path / "monitor.dat").exists()
        assert not (tmp_path / "monitor.dat.npz").exists()
        assert load_summaries(path)[0].monitor == "mon-a"

    def test_unwritable_path_is_repro_error(self, tmp_path):
        with pytest.raises(ReproError):
            save_summaries(str(tmp_path / "no-dir" / "mon.npz"), [summary()])

    def test_unreadable_file_is_format_error(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"definitely not a zip")
        with pytest.raises(SummaryFormatError):
            load_summaries(str(path))

    def test_missing_file_is_format_error(self, tmp_path):
        with pytest.raises(SummaryFormatError):
            load_summaries(str(tmp_path / "absent.npz"))


def rewrite_npz(path, **changes):
    """Rewrite the npz at ``path`` with ``changes``; ``None`` drops."""
    with np.load(path) as archive:
        data = dict(archive)
    for key, value in changes.items():
        if value is None:
            del data[key]
        else:
            data[key] = value
    with open(path, "wb") as stream:
        np.savez(stream, **data)


class TestNpzVersions:
    def test_a_version_one_file_loads_at_full_rate(self, tmp_path):
        """Version 1 predates sampling: it has no ``sample_rates``."""
        path = str(tmp_path / "mon.npz")
        run = [summary(slot=0), summary(slot=1)]
        save_summaries(path, run)
        rewrite_npz(path, version=np.int64(1), sample_rates=None)
        got = load_summaries(path)
        assert [s.sample_rate for s in got] == [1.0, 1.0]
        assert [s.to_bytes() for s in got] == [s.to_bytes() for s in run]

    def test_an_unknown_version_is_refused(self, tmp_path):
        path = str(tmp_path / "mon.npz")
        save_summaries(path, [summary()])
        rewrite_npz(path, version=np.int64(VERSION + 1))
        with pytest.raises(SummaryFormatError, match="unsupported"):
            load_summaries(path)

    def test_counts_that_disagree_with_the_tables_are_refused(self, tmp_path):
        path = str(tmp_path / "mon.npz")
        save_summaries(path, [summary()])
        rewrite_npz(path, counts=np.array([3], dtype=np.int64))
        with pytest.raises(SummaryFormatError, match="entry counts"):
            load_summaries(path)

    def test_a_missing_table_names_the_file(self, tmp_path):
        path = str(tmp_path / "mon.npz")
        save_summaries(path, [summary()])
        rewrite_npz(path, volumes=None)
        with pytest.raises(SummaryFormatError, match="is malformed") as bad:
            load_summaries(path)
        assert repr(path) in str(bad.value)
