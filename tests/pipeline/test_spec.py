"""Tests for the consolidated PipelineSpec configuration object."""

import argparse

import numpy as np
import pytest

from repro.errors import ClassificationError
from repro.flows.interchange import (
    FlowInfoRecord,
    FlowRecordSource,
    write_flow_records,
)
from repro.pipeline.backends import (
    ArraySketchAggregation,
    ExactAggregation,
)
from repro.pipeline.sampling import SamplingSpec
from repro.pipeline.sharded import MAX_SHARDS, ShardedAggregation
from repro.pipeline.sources import (
    ArrayPacketSource,
    CsvPacketSource,
    PcapPacketSource,
)
from repro.pipeline.spec import SOURCE_KINDS, PipelineSpec, SourceSpec
from repro.sketches import ArraySpaceSaving, BloomGate
from repro.sketches.bloom import DEFAULT_ADMISSION_THRESHOLD


class TestValidation:
    def test_defaults_valid(self):
        spec = PipelineSpec()
        assert spec.backend == "exact"
        assert spec.sampling.is_null
        assert spec.admission == "none"

    @pytest.mark.parametrize(
        "name", ["lossy", "count-min", "sample-hold", "misra-gries"]
    )
    def test_unknown_backend(self, name):
        with pytest.raises(ClassificationError) as raised:
            PipelineSpec(backend=name, capacity=4)
        assert str(raised.value) == (
            f"unknown backend {name!r}; expected one of exact, space-saving"
        )

    def test_unknown_admission(self):
        with pytest.raises(ClassificationError, match="admission"):
            PipelineSpec(admission="cuckoo")

    def test_shards_and_workers_are_alternatives(self):
        with pytest.raises(ClassificationError, match="alternatives"):
            PipelineSpec(shards=2, workers=2)

    @pytest.mark.parametrize("partitions", ["shards", "workers"])
    def test_at_most_max_shards_partitions(self, partitions):
        """Refused before a table is built or a worker is started."""
        PipelineSpec(**{partitions: MAX_SHARDS})
        with pytest.raises(ClassificationError, match="at most"):
            PipelineSpec(**{partitions: MAX_SHARDS + 1})

    def test_capacity_and_budget_are_alternatives(self):
        with pytest.raises(ClassificationError, match="alternatives"):
            PipelineSpec(
                backend="space-saving", capacity=64, memory_budget="64k"
            )

    def test_exact_rejects_capacity(self):
        with pytest.raises(ClassificationError, match="exact backend"):
            PipelineSpec(backend="exact", capacity=64)

    def test_sketch_requires_bound(self):
        with pytest.raises(ClassificationError, match="needs"):
            PipelineSpec(backend="space-saving")

    def test_admission_needs_array_sketch(self):
        with pytest.raises(ClassificationError, match="array-table"):
            PipelineSpec(backend="exact", admission="bloom")

    def test_admission_threshold_needs_admission(self):
        """A threshold with no gate to set was accepted and ignored."""
        for backend in ({}, {"backend": "space-saving", "capacity": 64}):
            with pytest.raises(
                ClassificationError, match="--admission bloom"
            ):
                PipelineSpec(admission_threshold=3000.0, **backend)

    def test_unparsable_budget_fails_at_construction(self):
        with pytest.raises(ClassificationError, match="bad memory budget"):
            PipelineSpec(backend="space-saving", memory_budget="abc")

    def test_budget_below_one_entry_per_shard_fails_at_construction(self):
        # 1 kB buys three ~320 B entries: enough for one table, not for
        # an entry in each of four
        PipelineSpec(backend="space-saving", memory_budget="1k")
        for split in ({"shards": 4}, {"workers": 4}):
            with pytest.raises(
                ClassificationError, match="below one tracked entry"
            ):
                PipelineSpec(
                    backend="space-saving", memory_budget="1k", **split
                )

    def test_bounds_checked(self):
        with pytest.raises(ClassificationError):
            PipelineSpec(shards=0)
        with pytest.raises(ClassificationError):
            PipelineSpec(workers=0)
        with pytest.raises(ClassificationError):
            PipelineSpec(ring_slots=0)
        with pytest.raises(ClassificationError):
            PipelineSpec(backend="space-saving", capacity=0)
        with pytest.raises(ClassificationError):
            PipelineSpec(admission_threshold=-1.0)

    def test_none_sampling_becomes_unsampled(self):
        spec = PipelineSpec(sampling=None)
        assert spec.sampling.is_null


class TestDerivedViews:
    def test_partitions(self):
        assert PipelineSpec().partitions == 1
        assert PipelineSpec(shards=4).partitions == 4
        assert PipelineSpec(workers=3).partitions == 3

    def test_budget_bytes_parses_strings(self):
        spec = PipelineSpec(backend="space-saving", memory_budget="64k")
        assert spec.budget_bytes == 64 << 10
        spec = PipelineSpec(backend="space-saving", memory_budget=4096)
        assert spec.budget_bytes == 4096

    def test_nonpositive_int_budget_rejected(self):
        with pytest.raises(ClassificationError, match="positive"):
            PipelineSpec(backend="space-saving", memory_budget=0)

    def test_resolved_capacity_passthrough(self):
        spec = PipelineSpec(backend="space-saving", capacity=64)
        assert spec.resolved_capacity == 64
        assert PipelineSpec().resolved_capacity is None

    def test_resolved_capacity_from_budget_counts_partitions(self):
        one = PipelineSpec(backend="space-saving", memory_budget="256k")
        split = PipelineSpec(
            backend="space-saving", memory_budget="256k", workers=4
        )
        assert one.resolved_capacity is not None
        # a budget buys N tables of K/N entries, never N tables of K
        assert split.resolved_capacity <= one.resolved_capacity

    def test_replace_revalidates(self):
        spec = PipelineSpec(backend="space-saving", capacity=64)
        assert spec.replace(capacity=32).capacity == 32
        with pytest.raises(ClassificationError):
            spec.replace(backend="exact")


class TestBuildBackend:
    def test_plain_exact_is_none(self):
        assert PipelineSpec().build_backend() is None

    def test_sharded_exact_builds(self):
        backend = PipelineSpec(shards=2).build_backend()
        assert isinstance(backend, ShardedAggregation)
        assert all(
            isinstance(shard, ExactAggregation)
            for shard in backend.shards
        )

    def test_sketch_builds(self):
        backend = PipelineSpec(
            backend="space-saving", capacity=64
        ).build_backend()
        assert isinstance(backend, ArraySketchAggregation)
        assert backend.name == "space-saving"
        assert backend.capacity == 64

    def test_admission_builds_gated_table(self):
        backend = PipelineSpec(
            backend="space-saving",
            capacity=64,
            admission="bloom",
            admission_threshold=1000.0,
        ).build_backend()
        assert isinstance(backend._table.gate, BloomGate)
        assert backend._table.gate.threshold_bytes == 1000.0

    @pytest.mark.parametrize("split", [{}, {"shards": 2}])
    def test_every_partition_is_a_gated_space_saving_table(self, split):
        spec = PipelineSpec(
            backend="space-saving", capacity=64, admission="bloom", **split
        )
        backend = spec.build_backend()
        for shard in getattr(backend, "shards", [backend]):
            assert isinstance(shard, ArraySketchAggregation)
            assert isinstance(shard._table.gate, BloomGate)
            assert isinstance(shard._table, ArraySpaceSaving)
            assert type(spec.build_shard()) is type(shard)

    @pytest.mark.parametrize("split", [{"shards": 2}, {"workers": 2}])
    def test_seed_is_the_gates_and_every_partition_alike(self, split):
        """No table draws a random number: ``seed`` seeds the Bloom
        gate, the same one in every partition, shard or worker."""
        spec = PipelineSpec(
            backend="space-saving",
            capacity=64,
            admission="bloom",
            seed=7,
            **split,
        )
        twin = spec.replace(workers=1, shards=spec.partitions)
        shards = twin.build_backend().shards
        shards += [spec.build_shard() for _ in range(spec.partitions)]
        assert [shard._table.gate.bloom.seed for shard in shards] == (
            [7] * len(shards)
        )
        assert {shard.capacity for shard in shards} == {32}

    def test_wrap_source_null(self):
        marker = object()
        assert PipelineSpec().wrap_source(marker) is marker


class TestFromArgs:
    def test_empty_namespace_gives_defaults(self):
        spec = PipelineSpec.from_args(argparse.Namespace())
        assert spec == PipelineSpec()

    def test_full_namespace(self):
        ns = argparse.Namespace(
            backend="space-saving",
            capacity=128,
            memory_budget=None,
            shards=1,
            workers=1,
            ring_slots=4,
            seed=9,
            sample_rate=100,
            sample_mode="probabilistic",
            sample_seed=5,
            no_invert=False,
            admission="bloom",
            admission_threshold=2000.0,
        )
        spec = PipelineSpec.from_args(ns)
        assert spec.backend == "space-saving"
        assert spec.capacity == 128
        assert spec.ring_slots == 4
        assert spec.seed == 9
        assert spec.sampling == SamplingSpec(
            rate=100, mode="probabilistic", seed=5
        )
        assert spec.admission == "bloom"
        assert spec.admission_threshold == 2000.0

    def test_no_invert_flag(self):
        ns = argparse.Namespace(sample_rate=10, no_invert=True)
        spec = PipelineSpec.from_args(ns)
        assert spec.sampling.rate == 10
        assert not spec.sampling.invert

    def test_cross_field_errors_surface(self):
        ns = argparse.Namespace(shards=2, workers=2)
        with pytest.raises(ClassificationError, match="alternatives"):
            PipelineSpec.from_args(ns)


class TestSourceSpec:
    def test_unknown_kind(self):
        with pytest.raises(ClassificationError, match="source kind"):
            SourceSpec(kind="netflow", path="x")

    def test_file_kinds_need_path(self):
        for kind in ("pcap", "packet-csv", "flow-csv"):
            with pytest.raises(ClassificationError, match="needs a path"):
                SourceSpec(kind=kind)

    def test_file_kinds_reject_columns(self):
        with pytest.raises(ClassificationError, match="array columns"):
            SourceSpec(
                kind="pcap", path="x", timestamps=np.zeros(1)
            )

    def test_array_kind_rejects_path(self):
        with pytest.raises(ClassificationError, match="not a path"):
            SourceSpec(
                kind="array",
                path="x",
                timestamps=np.zeros(1),
                destinations=np.zeros(1),
                wire_bytes=np.zeros(1),
            )

    def test_array_kind_needs_all_columns(self):
        with pytest.raises(ClassificationError, match="columns"):
            SourceSpec(kind="array", timestamps=np.zeros(1))

    def test_chunk_packets_bound(self):
        with pytest.raises(ClassificationError, match="chunk_packets"):
            SourceSpec(kind="pcap", path="x", chunk_packets=0)

    def test_from_path_sniffs_kinds(self, tmp_path):
        flow_csv = tmp_path / "flows.csv"
        flow_csv.write_text("flow_id,source_node_id,dest_node_id,...\n")
        packet_csv = tmp_path / "packets.csv"
        packet_csv.write_text("timestamp,destination,wire_bytes\n")
        assert SourceSpec.from_path("cap.pcap").kind == "pcap"
        assert SourceSpec.from_path(str(flow_csv)).kind == "flow-csv"
        assert (
            SourceSpec.from_path(str(packet_csv)).kind == "packet-csv"
        )

    def test_from_path_unreadable_csv(self, tmp_path):
        with pytest.raises(ClassificationError, match="cannot read"):
            SourceSpec.from_path(str(tmp_path / "missing.csv"))
        binary = tmp_path / "binary.csv"
        binary.write_bytes(b"\xff\xfe\x00x\n")  # not UTF-8
        with pytest.raises(ClassificationError, match="cannot read"):
            SourceSpec.from_path(str(binary))

    def test_open_builds_matching_source(self, tmp_path):
        flow_csv = tmp_path / "flows.csv"
        write_flow_records(
            str(flow_csv),
            [FlowInfoRecord(0, 0, 1, "", 0, 10, 100)],
        )
        packet_csv = tmp_path / "packets.csv"
        packet_csv.write_text("0.0,1,100\n")
        cases = [
            (SourceSpec(kind="pcap", path="x"), PcapPacketSource),
            (
                SourceSpec(kind="packet-csv", path=str(packet_csv)),
                CsvPacketSource,
            ),
            (
                SourceSpec(kind="flow-csv", path=str(flow_csv)),
                FlowRecordSource,
            ),
            (
                SourceSpec.of_arrays(
                    np.zeros(1), np.zeros(1, int), np.ones(1, int)
                ),
                ArrayPacketSource,
            ),
        ]
        for spec, expected in cases:
            assert isinstance(spec.open(), expected)

    def test_open_passes_chunk_packets(self, tmp_path):
        flow_csv = tmp_path / "flows.csv"
        write_flow_records(
            str(flow_csv),
            [FlowInfoRecord(0, 0, 1, "", 0, 10, 100)],
        )
        spec = SourceSpec(
            kind="flow-csv", path=str(flow_csv), chunk_packets=7
        )
        assert spec.open().chunk_packets == 7

    def test_describe(self):
        facts = SourceSpec(kind="pcap", path="cap.pcap").describe()
        assert facts == {"kind": "pcap", "path": "cap.pcap"}
        facts = SourceSpec.of_arrays(
            np.zeros(3), np.zeros(3, int), np.ones(3, int)
        ).describe()
        assert facts == {"kind": "array", "num_packets": 3}

    def test_kinds_constant_covers_all(self):
        assert set(SOURCE_KINDS) == {
            "pcap",
            "packet-csv",
            "flow-csv",
            "array",
        }


class TestPipelineSpecSource:
    def test_open_source_requires_source(self):
        with pytest.raises(ClassificationError, match="names no input"):
            PipelineSpec().open_source()

    def test_open_source_applies_sampling_wrap(self):
        timestamps = np.arange(10, dtype=np.float64)
        spec = PipelineSpec(
            sampling=SamplingSpec(rate=2),
            source=SourceSpec.of_arrays(
                timestamps,
                np.zeros(10, dtype=np.int64),
                np.full(10, 100, dtype=np.int64),
            ),
        )
        source = spec.open_source()
        seen = sum(
            batch.timestamps.size for batch in source.batches()
        )
        assert seen == 5  # 1-in-2 deterministic sampling

    def test_describe_includes_source(self):
        spec = PipelineSpec(
            source=SourceSpec(kind="pcap", path="cap.pcap")
        )
        facts = spec.describe()
        assert facts["source"] == {"kind": "pcap", "path": "cap.pcap"}
        assert facts["backend"] == "exact"
        assert facts["sampling"]["rate"] == 1

    def test_describe_without_source(self):
        assert "source" not in PipelineSpec().describe()

    def test_describe_says_what_threshold_a_gated_run_ran_with(self):
        assert "admission_threshold" not in PipelineSpec().describe()
        gated = PipelineSpec(
            backend="space-saving", capacity=8, admission="bloom"
        )
        facts = gated.describe()
        assert facts["admission_threshold"] == DEFAULT_ADMISSION_THRESHOLD
        facts = gated.replace(admission_threshold=3000.0).describe()
        assert facts["admission_threshold"] == 3000.0
