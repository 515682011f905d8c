"""Tests for packet and slot sources."""

import dataclasses
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ClassificationError, PcapFormatError
from repro.flows.interchange import (
    FlowInfoRecord,
    FlowRecordSource,
    write_flow_records,
)
from repro.flows.matrix import RateMatrix
from repro.flows.records import TimeAxis
from repro.net import ipv4
from repro.net.prefix import Prefix
from repro.pcap.packet import (
    PacketSummary,
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
from repro.pipeline.sampling import SamplingSpec
from repro.pipeline.sources import (
    ArrayPacketSource,
    CsvPacketSource,
    MatrixSlotSource,
    PacketBatch,
    PcapPacketSource,
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


def scanned(batches):
    """The batches' rows as per-packet summaries, in order."""
    return [
        PacketSummary(
            timestamp=float(b.timestamps[i]),
            destination=int(b.destinations[i]),
            wire_bytes=int(b.wire_bytes[i]),
        )
        for b in batches
        for i in range(b.num_packets)
    ]


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
        assert scanned(batches) == summaries

    def test_chunking_preserves_content_and_order(self, capture):
        path, summaries = capture
        batches = list(PcapPacketSource(path, chunk_packets=7).batches())
        assert all(b.num_packets <= 7 for b in batches)
        assert len(batches) >= len(summaries) // 7
        assert scanned(batches) == summaries

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

    def test_unsupported_linktype_refused(self, tmp_path):
        """A capture of another link layer (105 is 802.11) is refused
        at its header, before any record is read as Ethernet."""
        path = str(tmp_path / "wifi.pcap")
        with PcapWriter.open(path, linktype=105) as writer:
            writer.write(udp_record(0.0, "10.0.0.1"))
        with pytest.raises(PcapFormatError, match="unsupported linktype 105"):
            list(PcapPacketSource(path).batches())

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

    def test_corrupt_record_length_fails_fast_without_a_snaplen(
        self, tmp_path
    ):
        """A header with snaplen 0 sets no bound of its own: the claim
        is held to libpcap's record limit instead, so a bogus incl_len
        still raises at its record, in memory that does not grow with
        the rest of the file (3 MB of it here)."""
        good = udp_record(0.0, "10.0.0.1")
        path = tmp_path / "unbounded.pcap"
        with PcapWriter.open(str(path)) as writer:
            for _ in range(20_000):
                writer.write(good)
        data = bytearray(path.read_bytes())
        data[16:20] = bytes(4)  # the global header's snaplen
        offset = 24 + 16 + len(good.data)
        data[offset + 8 : offset + 12] = (0x7FFFFFF0).to_bytes(4, "little")
        path.write_bytes(data)
        tracemalloc.start()
        try:
            with (
                mock.patch.object(sources, "READ_BLOCK_BYTES", 4096),
                pytest.raises(PcapFormatError, match="262144-byte record"),
            ):
                list(PcapPacketSource(str(path)).batches())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 19


COLUMNS = ("timestamps", "destinations", "wire_bytes")


def scalar_scan(path, chunk_packets):
    """What ``PcapPacketSource`` owes, one record at a time (the oracle).

    Records come from :func:`repro.pcap.pcapfile.read_records`; fields
    are unpacked one packet at a time. Returns the batches as
    ``(rows, packets_seen)`` — a row is the three column values of one
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
                    (total_length,) = struct.unpack(">2xH", ip[:4])
                    (destination,) = struct.unpack(">I", ip[16:])
                    cut_short = record.original_length > len(data)
                    wire = (
                        record.original_length
                        if cut_short
                        else overhead + total_length
                    )
                    rows.append((record.timestamp, destination, wire))
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

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ClassificationError, match="chunk_packets"):
            CsvPacketSource("x.csv", chunk_packets=0)

    def test_integer_destinations_accepted(self, tmp_path):
        path = str(tmp_path / "flows.csv")
        with open(path, "w") as stream:
            stream.write(f"0.0,{ipv4.parse_ipv4('10.1.0.0')},64\n")
        (batch,) = CsvPacketSource(path).batches()
        assert int(batch.destinations[0]) == ipv4.parse_ipv4("10.1.0.0")

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1.0,10.0.0.1", "a packet row needs 3 columns"),
            # each used to end in OverflowError converting to int64
            (
                "0.5,10.0.0.1,99999999999999999999",
                "wire size 99999999999999999999 not in [0, 2**63)",
            ),
            (
                "0.5,10.0.0.1,9223372036854775808",
                "wire size 9223372036854775808 not in [0, 2**63)",
            ),
            (
                "0.5,99999999999999999999,100",
                "99999999999999999999 is not an IPv4 address",
            ),
            # used to fail later as "no active flows in slot"
            ("0.5,10.0.0.1,-100", "wire size -100 not in [0, 2**63)"),
            ("0.5,4294967296,100", "4294967296 is not an IPv4 address"),
        ],
    )
    def test_bad_row_names_its_line(self, tmp_path, row, message):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as stream:
            stream.write(f"0.5,10.0.0.1,100\n{row}\n")
        with pytest.raises(ClassificationError) as caught:
            list(CsvPacketSource(path).batches())
        assert str(caught.value) == f"packet CSV {path!r} line 2: {message}"

    def test_largest_size_and_address_accepted(self, tmp_path):
        path = str(tmp_path / "edge.csv")
        with open(path, "w") as stream:
            stream.write(f"0.5,{ipv4.MAX_ADDRESS},{2**63 - 1}\n0.5,0,0\n")
        (batch,) = CsvPacketSource(path).batches()
        assert batch.destinations.tolist() == [ipv4.MAX_ADDRESS, 0]
        assert batch.wire_bytes.tolist() == [2**63 - 1, 0]


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


def contract_source(kind, tmp_path, chunk):
    """``(source, records, rows)``: a source of ``kind`` over a few
    dozen packets, the records it scans and the rows it owes."""
    stamps = np.arange(60) * 0.25
    dests = (10 << 24) + np.arange(60) % 9 * 256
    sizes = 40 + np.arange(60) * 7
    if kind.startswith("pcap"):
        path = str(tmp_path / "c.pcap")
        raw_ip = kind == "pcap-raw-ip"
        linktype = LINKTYPE_RAW_IP if raw_ip else LINKTYPE_ETHERNET
        if kind != "pcap-mixed":  # equal lengths: the strided parse
            sizes = np.full(60, 100)
        records = [
            udp_record(stamp, ipv4.format_ipv4(dest), payload=size)
            for stamp, dest, size in zip(stamps, dests, sizes)
        ]
        if raw_ip:  # the IPv4 packets the frames carry
            records = [
                CaptureRecord(r.timestamp, r.data[14:]) for r in records
            ]
        rows = len(records)
        if kind == "pcap-mixed":  # ARP and runt frames among them
            arp = b"\x00" * 6 + b"\x01" * 6 + b"\x08\x06" + b"\x00" * 28
            for at in (0, 17, 33):
                records.insert(at, CaptureRecord(stamps[at], arp))
            records.insert(50, CaptureRecord(stamps[50], b"\x00" * 20))
        with PcapWriter.open(path, linktype=linktype) as writer:
            writer.write_all(records)
        return PcapPacketSource(path, chunk), len(records), rows
    if kind == "packet-csv":
        path = str(tmp_path / "c.csv")
        with open(path, "w") as stream:
            for stamp, dest, size in zip(stamps, dests, sizes):
                stream.write(f"{stamp},{ipv4.format_ipv4(dest)},{size}\n")
        return CsvPacketSource(path, chunk), 60, 60
    if kind == "flow-csv":
        path = str(tmp_path / "f.csv")
        records = [
            FlowInfoRecord(i, 7, int(d), "", round(t * 1e9), 10**11, int(s))
            for i, (t, d, s) in enumerate(zip(stamps, dests, sizes))
        ]
        write_flow_records(path, records)
        return FlowRecordSource(path, chunk), 60, 60
    array = ArrayPacketSource(stamps, dests, sizes, chunk)
    if kind == "array":
        return array, 60, 60
    # 1-in-3 from seed 1: counter phase 1, or the seeded coin flips
    mode = kind.removeprefix("sampled-")
    if mode == "probabilistic":
        kept = np.random.default_rng(1).random(60) < 1 / 3
    else:
        kept = (1 + np.arange(60)) % 3 == 0
    rows = int(kept.sum())
    if mode == "flow-records":  # one record per key per inner batch
        spans = [slice(lo, lo + chunk) for lo in range(0, 60, chunk)]
        rows = sum(len(set(dests[s][kept[s]].tolist())) for s in spans)
    sampled = SamplingSpec(rate=3, mode=mode, seed=1).wrap(array)
    return sampled, 60, rows


CONTRACT_KINDS = [
    "pcap-ethernet",
    "pcap-raw-ip",
    "pcap-mixed",
    "packet-csv",
    "flow-csv",
    "array",
    "sampled-deterministic",
    "sampled-probabilistic",
    "sampled-flow-records",
]


class TestThreeColumns:
    """Every packet source yields the same batch: three columns, one
    row per packet it could represent, and ``packets_seen`` counting
    every record it scanned, conserved over the run."""

    def test_a_batch_is_three_columns_and_a_count(self):
        names = [field.name for field in dataclasses.fields(PacketBatch)]
        assert names == [*COLUMNS, "packets_seen"]

    @pytest.mark.parametrize("chunk", [1, 7, 65536])
    @pytest.mark.parametrize("kind", CONTRACT_KINDS)
    def test_every_source_yields_the_three_columns(
        self, tmp_path, kind, chunk
    ):
        source, records, rows = contract_source(kind, tmp_path, chunk)
        batches = list(source.batches())
        for batch in batches:
            assert type(batch) is PacketBatch
            columns = [getattr(batch, name) for name in COLUMNS]
            dtypes = [column.dtype for column in columns]
            assert dtypes == [np.float64, np.int64, np.int64]
            assert all(c.shape == (batch.num_packets,) for c in columns)
            # a batch may hold no row: records it scanned and skipped,
            # or sampled away, still count
            assert batch.num_packets <= chunk
            assert batch.packets_seen >= batch.num_packets
        assert sum(b.packets_seen for b in batches) == records
        assert sum(b.num_packets for b in batches) == rows
        assert 0 < rows <= 60


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
