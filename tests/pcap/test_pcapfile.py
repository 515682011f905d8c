"""Unit tests for the classic pcap reader/writer."""

import io
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PcapFormatError
from repro.pcap import pcapfile
from repro.pcap.pcapfile import (
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW_IP,
    MAGIC_NSEC,
    CaptureRecord,
    PcapReader,
    PcapWriter,
    read_header,
)


def roundtrip(records, **writer_kwargs):
    buffer = io.BytesIO()
    writer = PcapWriter(buffer, **writer_kwargs)
    writer.write_all(records)
    buffer.seek(0)
    reader = PcapReader(buffer)
    return reader, list(reader)


class TestRoundtrip:
    def test_empty_file(self):
        reader, records = roundtrip([])
        assert records == []
        assert reader.linktype == LINKTYPE_ETHERNET

    def test_single_record(self):
        original = CaptureRecord(timestamp=123.456789, data=b"hello world")
        _, records = roundtrip([original])
        assert len(records) == 1
        parsed = records[0]
        assert parsed.data == original.data
        assert parsed.wire_length == len(original.data)
        assert parsed.timestamp == pytest.approx(original.timestamp,
                                                 abs=1e-6)

    def test_linktype_preserved(self):
        reader, _ = roundtrip([], linktype=LINKTYPE_RAW_IP)
        assert reader.linktype == LINKTYPE_RAW_IP

    def test_snaplen_truncates(self):
        original = CaptureRecord(timestamp=1.0, data=b"x" * 100)
        _, records = roundtrip([original], snaplen=10)
        assert records[0].captured_length == 10
        assert records[0].wire_length == 100

    def test_timestamp_microsecond_rounding_never_overflows(self):
        # 0.9999996 rounds to 1000000 us, which must carry into seconds.
        original = CaptureRecord(timestamp=5.9999996, data=b"a")
        _, records = roundtrip([original])
        assert records[0].timestamp == pytest.approx(6.0, abs=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=2e9, allow_nan=False),
            st.binary(min_size=0, max_size=200),
        ),
        max_size=20,
    ))
    def test_many_records_roundtrip(self, raw_records):
        originals = [CaptureRecord(timestamp=ts, data=data)
                     for ts, data in raw_records]
        _, records = roundtrip(originals)
        assert len(records) == len(originals)
        for original, parsed in zip(originals, records):
            assert parsed.data == original.data
            assert parsed.timestamp == pytest.approx(original.timestamp,
                                                     abs=1e-5)


class TestFileHandling(object):
    def test_open_close_paths(self, tmp_path):
        path = str(tmp_path / "capture.pcap")
        with PcapWriter.open(path) as writer:
            writer.write(CaptureRecord(timestamp=1.5, data=b"abc"))
        with PcapReader.open(path) as reader:
            records = list(reader)
        assert len(records) == 1
        assert records[0].data == b"abc"

    def test_a_refused_open_closes_its_handle(self, tmp_path, monkeypatch):
        """A reader that refuses the file's header leaves no descriptor
        open behind it; a writer that cannot write one neither."""
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(pcapfile, "open", recording_open, raising=False)
        foreign = tmp_path / "foreign.pcap"
        foreign.write_bytes(b"\x00" * 24)
        with pytest.raises(PcapFormatError, match="magic"):
            PcapReader.open(str(foreign))
        with pytest.raises(struct.error):
            PcapWriter.open(str(tmp_path / "out.pcap"), linktype=-1)
        assert len(opened) == 2
        assert all(stream.closed for stream in opened)


class TestMalformedInput:
    def test_bad_magic(self):
        with pytest.raises(PcapFormatError, match="magic"):
            read_header(io.BytesIO(b"\x00" * 24))

    def test_truncated_global_header(self):
        with pytest.raises(PcapFormatError, match="truncated"):
            read_header(io.BytesIO(b"\xd4\xc3\xb2\xa1"))

    def test_unsupported_version(self):
        header = struct.pack("<IHHiIII", 0xA1B2C3D4, 3, 0, 0, 0, 65535, 1)
        with pytest.raises(PcapFormatError, match="version"):
            read_header(io.BytesIO(header))

    def test_truncated_record_body(self):
        buffer = io.BytesIO()
        writer = PcapWriter(buffer)
        writer.write(CaptureRecord(timestamp=1.0, data=b"abcdef"))
        truncated = buffer.getvalue()[:-3]
        reader = PcapReader(io.BytesIO(truncated))
        with pytest.raises(PcapFormatError, match="body"):
            list(reader)

    def test_truncated_record_header(self):
        buffer = io.BytesIO()
        writer = PcapWriter(buffer)
        writer.write(CaptureRecord(timestamp=1.0, data=b"abcdef"))
        truncated = buffer.getvalue()[:26]  # 24 header + 2 stray bytes
        reader = PcapReader(io.BytesIO(truncated))
        with pytest.raises(PcapFormatError, match="record header"):
            list(reader)

    def test_record_above_snaplen_rejected(self):
        buffer = io.BytesIO()
        buffer.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 4, 1))
        buffer.write(struct.pack("<IIII", 0, 0, 100, 100))
        buffer.write(b"x" * 100)
        buffer.seek(0)
        reader = PcapReader(buffer)
        with pytest.raises(PcapFormatError, match="snaplen"):
            list(reader)


class TestForeignFormats:
    def test_big_endian_file(self):
        buffer = io.BytesIO()
        buffer.write(struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0,
                                 65535, 1))
        buffer.write(struct.pack(">IIII", 10, 500000, 3, 3))
        buffer.write(b"abc")
        buffer.seek(0)
        reader = PcapReader(buffer)
        records = list(reader)
        assert records[0].data == b"abc"
        assert records[0].timestamp == pytest.approx(10.5)

    def test_nanosecond_magic(self):
        buffer = io.BytesIO()
        buffer.write(struct.pack("<IHHiIII", MAGIC_NSEC, 2, 4, 0, 0,
                                 65535, 1))
        buffer.write(struct.pack("<IIII", 10, 500_000_000, 2, 2))
        buffer.write(b"ab")
        buffer.seek(0)
        reader = PcapReader(buffer)
        records = list(reader)
        assert records[0].timestamp == pytest.approx(10.5)


class TestCaptureRecord:
    def test_wire_length_defaults_to_data(self):
        record = CaptureRecord(timestamp=0.0, data=b"abcd")
        assert record.wire_length == 4

    def test_explicit_original_length(self):
        record = CaptureRecord(timestamp=0.0, data=b"ab", original_length=99)
        assert record.wire_length == 99
        assert record.captured_length == 2
