"""Tests for the flow_info.csv interchange layer."""

import numpy as np
import pytest

from repro.errors import ClassificationError
from repro.flows.interchange import (
    FLOW_INFO_COLUMNS,
    NS_PER_SECOND,
    FlowInfoRecord,
    FlowRecordSource,
    read_flow_records,
    slot_flow_records,
    write_flow_records,
)
from repro.net.prefix import Prefix
from repro.pipeline.sources import SlotFrame


def _records():
    return [
        FlowInfoRecord(0, 0, 167837696, "", 0, 10_000_000_000, 500_000,
                       metadata="10.1.0.0/16"),
        FlowInfoRecord(1, 0, 167903232, "a-b-c", 2_000_000_000,
                       10_000_000_000, 125_000),
        FlowInfoRecord(2, 7, 3, "", 10_000_000_000, 10_000_000_000, 0),
    ]


class TestFlowInfoRecord:
    def test_validation(self):
        with pytest.raises(ClassificationError, match="flow_id"):
            FlowInfoRecord(-1, 0, 0, "", 0, 1, 0)
        with pytest.raises(ClassificationError, match="node ids"):
            FlowInfoRecord(0, -1, 0, "", 0, 1, 0)
        with pytest.raises(ClassificationError, match="before"):
            FlowInfoRecord(0, 0, 0, "", 5, 4, 0)
        with pytest.raises(ClassificationError, match="amount_sent"):
            FlowInfoRecord(0, 0, 0, "", 0, 1, -1)
        with pytest.raises(ClassificationError, match="amount_sent"):
            FlowInfoRecord(0, 0, 0, "", 0, 1, 2**63)
        with pytest.raises(ClassificationError, match="IPv4 address"):
            FlowInfoRecord(0, 0, 2**32, "", 0, 1, 0)
        with pytest.raises(ClassificationError, match="commas"):
            FlowInfoRecord(0, 0, 0, "a,b", 0, 1, 0)
        with pytest.raises(ClassificationError, match="commas"):
            FlowInfoRecord(0, 0, 0, "", 0, 1, 0, metadata="x\ny")

    def test_derived_columns(self):
        record = FlowInfoRecord(0, 0, 1, "", 2, 10, 100)
        assert record.duration == 8
        # Gbit/s for ns timestamps is bits per ns
        assert record.average_bandwidth == pytest.approx(800 / 8)

    def test_zero_duration_bandwidth(self):
        record = FlowInfoRecord(0, 0, 1, "", 5, 5, 100)
        assert record.average_bandwidth == 0.0


class TestReadWrite:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "flow_info.csv")
        records = _records()
        assert write_flow_records(path, records) == 3
        assert read_flow_records(path) == records

    def test_header_written_and_skipped(self, tmp_path):
        path = str(tmp_path / "flow_info.csv")
        write_flow_records(path, _records())
        with open(path) as stream:
            header = stream.readline().strip()
        assert header == ",".join(FLOW_INFO_COLUMNS)

    def test_headerless_file_reads(self, tmp_path):
        path = str(tmp_path / "bare.csv")
        path2 = str(tmp_path / "with_header.csv")
        records = _records()
        write_flow_records(path2, records)
        with open(path2) as stream:
            lines = stream.readlines()[1:]
        with open(path, "w") as stream:
            stream.writelines(lines)
        assert read_flow_records(path) == records

    def test_derived_columns_ignored_on_read(self, tmp_path):
        path = str(tmp_path / "lies.csv")
        with open(path, "w") as stream:
            stream.write("5,0,1,,0,10,99999,100,42.0,\n")
        (record,) = read_flow_records(path)
        assert record.duration == 10  # recomputed, not the stored 99999
        assert record.amount_sent == 100

    def test_dotted_quad_node_ids(self, tmp_path):
        path = str(tmp_path / "quad.csv")
        with open(path, "w") as stream:
            stream.write("0,10.0.0.1,10.1.0.0,,0,10,100,100,0.0,\n")
        (record,) = read_flow_records(path)
        assert record.dest_node_id == (10 << 24) + (1 << 16)

    def test_bad_column_count(self, tmp_path):
        path = str(tmp_path / "short.csv")
        with open(path, "w") as stream:
            stream.write("1,2,3\n")
        with pytest.raises(ClassificationError, match="columns"):
            read_flow_records(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("x,0,1,,0,10,10,100,0.0,", "invalid literal"),
            # each used to end in OverflowError converting to int64
            (
                "0,0,1,,0,10,10,99999999999999999999,0.0,",
                "amount_sent 99999999999999999999 not in [0, 2**63)",
            ),
            (
                "0,0,99999999999999999999,,0,10,10,100,0.0,",
                "dest_node_id 99999999999999999999 is not an IPv4 address",
            ),
            ("0,0,1,,0,10,10,-5,0.0,", "amount_sent -5 not in [0, 2**63)"),
            ("0,0,1,,5,4,10,100,0.0,", "end_time 4 before start_time 5"),
        ],
    )
    def test_bad_cell_names_line(self, tmp_path, row, message):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as stream:
            stream.write("0,0,1,,0,10,10,100,0.0,\n")
            stream.write(row + "\n")
        with pytest.raises(ClassificationError, match="bad.csv:2") as caught:
            read_flow_records(path)
        assert message in str(caught.value)

    def test_widest_values_read(self, tmp_path):
        path = str(tmp_path / "edge.csv")
        with open(path, "w") as stream:
            stream.write(f"0,{2**70},255.255.255.255,,0,1,1,{2**63 - 1},0,\n")
        (record,) = read_flow_records(path)
        assert record.source_node_id == 2**70  # carried, never a column
        assert record.dest_node_id == 2**32 - 1
        assert record.amount_sent == 2**63 - 1
        (batch,) = FlowRecordSource(path).batches()
        assert batch.wire_bytes.tolist() == [2**63 - 1]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ClassificationError, match="cannot read"):
            read_flow_records(str(tmp_path / "missing.csv"))

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(ClassificationError, match="cannot write"):
            write_flow_records(str(tmp_path / "no" / "dir.csv"), [])


class TestFlowRecordSource:
    def test_records_become_packet_rows(self, tmp_path):
        path = str(tmp_path / "flow_info.csv")
        write_flow_records(path, _records())
        (batch,) = list(FlowRecordSource(path).batches())
        assert batch.timestamps.tolist() == [0.0, 2.0, 10.0]
        assert batch.destinations.tolist() == [167837696, 167903232, 3]
        assert batch.wire_bytes.tolist() == [500_000, 125_000, 0]
        assert batch.packets_seen == 3

    def test_chunking(self, tmp_path):
        path = str(tmp_path / "flow_info.csv")
        write_flow_records(path, _records())
        batches = list(
            FlowRecordSource(path, chunk_packets=2).batches()
        )
        assert [b.timestamps.size for b in batches] == [2, 1]

    def test_chunk_bound(self, tmp_path):
        with pytest.raises(ClassificationError, match="chunk_packets"):
            FlowRecordSource("x", chunk_packets=0)

    def test_empty_file_yields_nothing(self, tmp_path):
        path = str(tmp_path / "flow_info.csv")
        write_flow_records(path, [])
        assert list(FlowRecordSource(path).batches()) == []


class TestSlotFlowRecords:
    def _frame(self, rates, population, residual_row=None):
        return SlotFrame(
            slot=3,
            start=180.0,
            rates=np.asarray(rates, dtype=np.float64),
            population=population,
            residual_row=residual_row,
        )

    def test_one_record_per_active_flow(self):
        population = [Prefix.parse("10.0.0.0/16"),
                      Prefix.parse("10.1.0.0/16")]
        records = slot_flow_records(
            self._frame([4e5, 0.0], population), 60.0
        )
        (record,) = records
        assert record.flow_id == 0
        assert record.start_time == 180 * NS_PER_SECOND
        assert record.end_time == 240 * NS_PER_SECOND
        assert record.amount_sent == round(4e5 * 60 / 8)
        assert record.dest_node_id == population[0].network
        assert record.metadata == "10.0.0.0/16"

    def test_residual_row_skipped(self):
        population = [Prefix.parse("0.0.0.0/0"),
                      Prefix.parse("10.1.0.0/16")]
        records = slot_flow_records(
            self._frame([5e5, 4e5], population, residual_row=0), 60.0
        )
        assert [r.metadata for r in records] == ["10.1.0.0/16"]

    def test_first_flow_id_offsets(self):
        population = [Prefix.parse("10.0.0.0/16"),
                      Prefix.parse("10.1.0.0/16")]
        records = slot_flow_records(
            self._frame([1e5, 2e5], population), 60.0, first_flow_id=7
        )
        assert [r.flow_id for r in records] == [7, 8]
