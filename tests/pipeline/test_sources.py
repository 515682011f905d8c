"""Tests for packet and slot sources."""

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ClassificationError, PcapFormatError
from repro.flows.matrix import RateMatrix
from repro.flows.records import TimeAxis
from repro.net import ipv4
from repro.net.prefix import Prefix
from repro.pcap.packet import (
    build_frame,
    build_udp_packet,
    summarize_record,
)
from repro.pcap.pcapfile import (
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW_IP,
    MAGIC_NSEC,
    MAGIC_USEC,
    CaptureRecord,
    PcapReader,
    PcapWriter,
    read_header,
    read_records,
)
from repro.pipeline import sources
from repro.pipeline.sources import (
    ArrayPacketSource,
    CsvPacketSource,
    MatrixSlotSource,
    PcapPacketSource,
    ScenarioSlotSource,
)


def udp_record(timestamp, destination, payload=100):
    packet = build_udp_packet(
        ipv4.parse_ipv4("198.51.100.1"),
        ipv4.parse_ipv4(destination),
        4000,
        80,
        b"\x00" * payload,
    )
    return CaptureRecord(timestamp=timestamp, data=build_frame(packet))


@pytest.fixture()
def capture(tmp_path):
    """A small capture plus its per-packet reference summaries."""
    records = [
        udp_record(
            float(i) * 0.5, f"10.{i % 7}.0.{i % 250}", payload=50 + i % 400
        )
        for i in range(500)
    ]
    path = str(tmp_path / "small.pcap")
    with PcapWriter.open(path) as writer:
        writer.write_all(records)
    with PcapReader.open(path) as reader:
        summaries = [summarize_record(r, reader.linktype) for r in reader]
    return path, summaries


class TestPcapPacketSource:
    def test_matches_per_packet_summaries(self, capture):
        path, summaries = capture
        batches = list(PcapPacketSource(path).batches())
        assert sum(b.num_packets for b in batches) == len(summaries)
        scanned = [s for b in batches for s in b.summaries()]
        assert scanned == summaries

    def test_chunking_preserves_content_and_order(self, capture):
        path, summaries = capture
        batches = list(PcapPacketSource(path, chunk_packets=7).batches())
        assert all(b.num_packets <= 7 for b in batches)
        assert len(batches) >= len(summaries) // 7
        scanned = [s for b in batches for s in b.summaries()]
        assert scanned == summaries

    def test_truncated_capture_wire_bytes(self, tmp_path):
        record = udp_record(1.0, "10.0.0.1", payload=900)
        path = str(tmp_path / "snap.pcap")
        with PcapWriter.open(path, snaplen=100) as writer:
            writer.write(record)
        (batch,) = PcapPacketSource(path).batches()
        assert batch.num_packets == 1
        assert int(batch.wire_bytes[0]) == len(record.data)

    def test_raw_ip_linktype(self, tmp_path):
        packet = build_udp_packet(
            ipv4.parse_ipv4("198.51.100.1"),
            ipv4.parse_ipv4("10.0.0.9"),
            4000,
            80,
            b"\x00" * 64,
        )
        path = str(tmp_path / "raw.pcap")
        with PcapWriter.open(path, linktype=LINKTYPE_RAW_IP) as writer:
            writer.write(CaptureRecord(timestamp=2.0, data=packet.encode()))
        (batch,) = PcapPacketSource(path).batches()
        assert batch.num_packets == 1
        assert int(batch.destinations[0]) == ipv4.parse_ipv4("10.0.0.9")
        assert int(batch.wire_bytes[0]) == packet.total_length

    def test_non_ipv4_frames_counted_not_raised(self, tmp_path):
        arp = b"\x00" * 6 + b"\x01" * 6 + b"\x08\x06" + b"\x00" * 28
        path = str(tmp_path / "mixed.pcap")
        with PcapWriter.open(path) as writer:
            writer.write(CaptureRecord(timestamp=0.0, data=arp))
            writer.write(udp_record(1.0, "10.0.0.1"))
        (batch,) = PcapPacketSource(path).batches()
        assert batch.packets_seen == 2
        assert batch.num_packets == 1
        assert batch.packets_skipped == 1

    def test_truncated_file_raises(self, tmp_path):
        source_path = str(tmp_path / "whole.pcap")
        with PcapWriter.open(source_path) as writer:
            writer.write(udp_record(0.0, "10.0.0.1", payload=500))
        data = open(source_path, "rb").read()
        clipped = str(tmp_path / "clipped.pcap")
        with open(clipped, "wb") as stream:
            stream.write(data[:-20])
        with pytest.raises(PcapFormatError):
            list(PcapPacketSource(clipped).batches())

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ClassificationError):
            PcapPacketSource("x.pcap", chunk_packets=0)

    def test_corrupt_record_length_fails_fast(self, tmp_path):
        """A bogus incl_len must raise at that record, not buffer the
        rest of the file hunting for its end."""
        good = udp_record(0.0, "10.0.0.1")
        path = str(tmp_path / "corrupt.pcap")
        with PcapWriter.open(path) as writer:
            writer.write(good)
            writer.write(good)
        data = bytearray(open(path, "rb").read())
        # second record's header sits right after the first record
        offset = 24 + 16 + len(good.data)
        data[offset + 8 : offset + 12] = (0xFFFFFFF0).to_bytes(4, "little")
        with open(path, "wb") as stream:
            stream.write(data)
        with pytest.raises(PcapFormatError, match="above snaplen"):
            list(PcapPacketSource(path).batches())


COLUMNS = ("timestamps", "sources", "destinations", "protocols", "wire_bytes")


def scalar_scan(path, chunk_packets):
    """What ``PcapPacketSource`` owes, one record at a time (the oracle).

    Records come from :func:`repro.pcap.pcapfile.read_records`; fields
    are unpacked one packet at a time. Returns the batches as
    ``(rows, packets_seen)`` — a row is the five column values of one
    IPv4 packet — and the format error that ended the scan, if any:
    every full batch before a fault is delivered, the partial one the
    fault interrupts is not.
    """
    batches, rows, seen = [], [], 0
    with open(path, "rb") as stream:
        header = read_header(stream)
        overhead = 14 if header.linktype == LINKTYPE_ETHERNET else 0
        try:
            for record in read_records(stream, header):
                data = record.data
                ip = data[overhead : overhead + 20]
                is_ip = overhead == 0 or data[12:14] == b"\x08\x00"
                if is_ip and len(ip) == 20 and ip[0] >> 4 == 4:
                    total_length, protocol = struct.unpack(">2xH5xB", ip[:10])
                    source, destination = struct.unpack(">II", ip[12:])
                    cut_short = record.original_length > len(data)
                    wire = (
                        record.original_length
                        if cut_short
                        else overhead + total_length
                    )
                    rows.append(
                        (record.timestamp, source, destination, protocol, wire)
                    )
                seen += 1
                if seen == chunk_packets:
                    batches.append((rows, seen))
                    rows, seen = [], 0
        except PcapFormatError as exc:
            return batches, str(exc)
    if seen:
        batches.append((rows, seen))
    return batches, None


def vector_scan(path, chunk_packets):
    """The same shape from the source under test, dtypes asserted."""
    batches = []
    try:
        for batch in PcapPacketSource(path, chunk_packets).batches():
            columns = [getattr(batch, name) for name in COLUMNS]
            assert columns[0].dtype == np.float64
            assert all(column.dtype == np.int64 for column in columns[1:])
            assert all(column.shape == columns[0].shape for column in columns)
            rows = list(zip(*(column.tolist() for column in columns)))
            batches.append((rows, batch.packets_seen))
    except PcapFormatError as exc:
        return batches, str(exc)
    return batches, None


def frame(kind, payload, seed):
    """Captured bytes of one record, by kind, ``payload`` bytes long
    past the headers (or in total, for the kind with no headers)."""
    if kind == "short":
        return bytes(payload % 34)
    ip = struct.pack(
        ">BBHHHBBHII",
        0x65 if kind == "version6" else 0x45,
        0,
        20 + payload + seed % 3,
        seed & 0xFFFF,
        0,
        64,
        (6, 17, 1)[seed % 3],
        0,
        0x0A000000 | seed % 251,
        (0xC0000200 + seed * 2654435761) & 0xFFFFFFFF,
    )
    ethertype = {"arp": 0x0806, "ipv6": 0x86DD}.get(kind, 0x0800)
    return bytes(12) + struct.pack(">H", ethertype) + ip + bytes(payload)


KINDS = ["ipv4", "ipv4", "ipv4", "arp", "ipv6", "version6", "short"]


@st.composite
def captures(draw):
    """Bytes of a capture file: equal-length runs, mixed stretches, odd
    records inside and at the edges of runs, then maybe one fault."""
    order = draw(st.sampled_from("<>"))
    nanosecond = draw(st.booleans())
    raw_ip = draw(st.booleans())
    snaplen = draw(st.sampled_from([0, 96, 65535]))
    records = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):  # a run of equal captured lengths
            payload = draw(st.integers(0, 40))
            count = draw(st.integers(1, 40))
            kinds = [draw(st.sampled_from(KINDS[:6]))] * count
            payloads = [payload] * count
        else:
            payloads = draw(st.lists(st.integers(0, 40), max_size=12))
            kinds = [draw(st.sampled_from(KINDS)) for _ in payloads]
        for kind, payload in zip(kinds, payloads):
            data = frame(kind, payload, len(records))
            if raw_ip and kind != "short":
                data = data[14:]
            longer = draw(st.sampled_from([0, 0, 40]))
            records.append((data, len(data) + longer))
    blob = struct.pack(
        order + "IHHiIII",
        MAGIC_NSEC if nanosecond else MAGIC_USEC,
        2,
        4,
        0,
        0,
        snaplen,
        LINKTYPE_RAW_IP if raw_ip else LINKTYPE_ETHERNET,
    )
    offsets = []
    for index, (data, original) in enumerate(records):
        offsets.append(len(blob))
        stamp = (1000 + index // 7, index * 1001)
        blob += struct.pack(order + "IIII", *stamp, len(data), original)
        blob += data
    fault = draw(st.sampled_from(["none", "none", "cut", "claim"]))
    if fault == "cut" and records:
        # EOF inside the last record: in its body, or in its header
        blob = blob[: -draw(st.integers(1, 15 + len(records[-1][0])))]
    elif fault == "claim" and records and snaplen:
        # a length above snaplen: before, inside or right after a run
        at = offsets[draw(st.integers(0, len(records) - 1))] + 8
        claim = struct.pack(order + "I", snaplen + draw(st.integers(1, 9)))
        blob = blob[:at] + claim + blob[at + 4 :]
    return blob


@pytest.fixture(scope="module")
def capture_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("captures") / "generated.pcap")


class TestPcapAgainstTheScalarReader:
    @settings(max_examples=400, deadline=None)
    @given(
        blob=captures(),
        chunk_packets=st.sampled_from([1, 7, 65536]),
        block=st.sampled_from([50, 300, 1 << 22]),
    )
    def test_same_batches_or_same_error(
        self, capture_path, blob, chunk_packets, block
    ):
        with open(capture_path, "wb") as stream:
            stream.write(blob)
        # a small read block puts buffer refills — where the reader
        # probes for an equal-length run — inside these small files
        with mock.patch.object(sources, "READ_BLOCK_BYTES", block):
            got = vector_scan(capture_path, chunk_packets)
        assert got == scalar_scan(capture_path, chunk_packets)

    @pytest.mark.parametrize("odd_at", [None, 100, 699, 700, 701, 2999])
    @pytest.mark.parametrize("chunk_packets", [700, 65536])
    def test_a_long_run_with_one_odd_record(
        self, tmp_path, odd_at, chunk_packets
    ):
        """Runs long enough to span several refills and chunks: the odd
        record mid-chunk, on either side of a chunk edge, and last."""
        path = str(tmp_path / "run.pcap")
        with PcapWriter.open(path, snaplen=64) as writer:
            for index in range(3000):
                record = udp_record(index * 0.01, f"10.{index % 200}.0.1")
                if index == odd_at:
                    record = udp_record(index * 0.01, "10.9.9.9", payload=3)
                writer.write(record)
        with mock.patch.object(sources, "READ_BLOCK_BYTES", 16384):
            got = vector_scan(path, chunk_packets)
        assert got == scalar_scan(path, chunk_packets)
        assert got[1] is None
        assert sum(seen for _, seen in got[0]) == 3000


class TestCsvPacketSource:
    def test_reads_rows_in_chunks(self, tmp_path):
        path = str(tmp_path / "flows.csv")
        with open(path, "w") as stream:
            stream.write("timestamp,destination,wire_bytes\n")
            for i in range(10):
                stream.write(f"{i}.5,10.0.0.{i},{100 + i}\n")
        batches = list(CsvPacketSource(path, chunk_packets=4).batches())
        assert [b.num_packets for b in batches] == [4, 4, 2]
        first = batches[0]
        assert first.timestamps[0] == pytest.approx(0.5)
        assert int(first.destinations[1]) == ipv4.parse_ipv4("10.0.0.1")
        assert int(first.wire_bytes[2]) == 102

    def test_no_zero_column_is_allocated_per_batch(self, tmp_path):
        path = str(tmp_path / "flows.csv")
        with open(path, "w") as stream:
            stream.write("0.5,10.0.0.1,100\n1.5,10.0.0.2,200\n")
        (batch,) = CsvPacketSource(path).batches()
        assert batch.sources.strides == batch.protocols.strides == (0,)
        assert batch.sources.tolist() == batch.protocols.tolist() == [0, 0]

    def test_integer_destinations_accepted(self, tmp_path):
        path = str(tmp_path / "flows.csv")
        with open(path, "w") as stream:
            stream.write(f"0.0,{ipv4.parse_ipv4('10.1.0.0')},64\n")
        (batch,) = CsvPacketSource(path).batches()
        assert int(batch.destinations[0]) == ipv4.parse_ipv4("10.1.0.0")

    def test_short_row_rejected(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as stream:
            stream.write("1.0,10.0.0.1\n")
        with pytest.raises(ClassificationError):
            list(CsvPacketSource(path).batches())


class TestArrayPacketSource:
    def test_chunks_preserve_order_and_content(self):
        timestamps = np.arange(10, dtype=float)
        destinations = np.arange(10, dtype=np.int64) + 100
        sizes = np.full(10, 64, dtype=np.int64)
        source = ArrayPacketSource(
            timestamps, destinations, sizes, chunk_packets=4
        )
        batches = list(source.batches())
        assert [b.num_packets for b in batches] == [4, 4, 2]
        assert sum(b.packets_seen for b in batches) == 10
        rejoined = np.concatenate([b.destinations for b in batches])
        assert np.array_equal(rejoined, destinations)
        assert all(b.packets_skipped == 0 for b in batches)

    def test_no_zero_column_is_allocated_per_batch(self):
        # nothing on the pipeline reads sources/protocols: they are the
        # zero-stride zeros of PacketBatch.of_flows, not a fresh
        # np.zeros(chunk) each per batch
        source = ArrayPacketSource(
            np.arange(10.0), np.arange(10), np.full(10, 64), chunk_packets=4
        )
        for batch in source.batches():
            for column in (batch.sources, batch.protocols):
                assert column.strides == (0,)
                assert column.shape == (batch.num_packets,)
                assert column.dtype == np.int64 and not column.any()

    def test_integer_sizes_are_held_as_int64_floats_stay(self):
        stamps, dests = np.arange(3.0), np.arange(3)
        for dtype in (np.uint8, np.uint16, np.int32, np.uint32, np.int64):
            source = ArrayPacketSource(stamps, dests, np.ones(3, dtype))
            assert source.wire_bytes.dtype == np.int64
        source = ArrayPacketSource(stamps, dests, np.ones(3, np.float32))
        assert source.wire_bytes.dtype == np.float32

    def test_empty_source_yields_nothing(self):
        source = ArrayPacketSource(
            np.zeros(0), np.zeros(0, np.int64), np.zeros(0, np.int64)
        )
        assert list(source.batches()) == []
        assert source.num_packets == 0

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ClassificationError):
            ArrayPacketSource(
                np.zeros(3), np.zeros(2, np.int64), np.zeros(3, np.int64)
            )

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ClassificationError):
            ArrayPacketSource(
                np.zeros(1),
                np.zeros(1, np.int64),
                np.zeros(1, np.int64),
                chunk_packets=0,
            )


class TestSlotSources:
    def test_matrix_slot_source_replays_columns(self):
        prefixes = [Prefix.parse("10.0.0.0/8"), Prefix.parse("20.0.0.0/8")]
        axis = TimeAxis(100.0, 60.0, 3)
        rates = np.arange(6, dtype=float).reshape(2, 3)
        matrix = RateMatrix(prefixes, axis, rates)
        frames = list(MatrixSlotSource(matrix).slots())
        assert [f.slot for f in frames] == [0, 1, 2]
        assert frames[1].start == pytest.approx(160.0)
        assert np.array_equal(frames[2].rates, rates[:, 2])
        assert frames[0].population is matrix.prefixes
        assert frames[0].num_flows == 2

    def test_scenario_slot_source(self):
        source = ScenarioSlotSource("west", scale=0.05, seed=11)
        frames = list(source.slots())
        assert len(frames) == source.matrix.num_slots
        assert source.slot_seconds == source.matrix.axis.slot_seconds

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ClassificationError):
            ScenarioSlotSource("gulf-coast")
