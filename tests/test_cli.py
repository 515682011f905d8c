"""Tests for the command-line interface."""

import io
import json
import socket
import struct
import threading
import time
import zipfile

import numpy as np
import pytest

from repro.cli import main
from repro.cli.collect import _refused, _write_port_file
from repro.distributed.summary import SlotSummary, save_summaries
from repro.errors import ReproError
from repro.flows.matrix import RateMatrix
from repro.flows.records import TimeAxis
from repro.net.prefix import Prefix
from repro.traffic.packetize import PacketizerConfig, write_pcap


@pytest.fixture(scope="module")
def matrix_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "west.npz")
    code = main(
        ["simulate", path, "--link", "west", "--scale", "0.05", "--seed", "5"]
    )
    assert code == 0
    return path


class TestSimulate:
    def test_writes_loadable_matrix(self, matrix_file):
        matrix = RateMatrix.load_npz(matrix_file)
        assert matrix.num_flows >= 400
        assert matrix.num_slots >= 144

    def test_east_link(self, tmp_path, capsys):
        path = str(tmp_path / "east.npz")
        code = main(["simulate", path, "--link", "east", "--scale", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "utilisation" in out

    def test_seed_changes_output(self, tmp_path):
        first = str(tmp_path / "a.npz")
        second = str(tmp_path / "b.npz")
        main(["simulate", first, "--scale", "0.05", "--seed", "1"])
        main(["simulate", second, "--scale", "0.05", "--seed", "2"])
        a = RateMatrix.load_npz(first)
        b = RateMatrix.load_npz(second)
        assert not np.array_equal(a.rates, b.rates)


class TestClassify:
    def test_summary_table(self, matrix_file, capsys):
        assert main(["classify", matrix_file]) == 0
        out = capsys.readouterr().out
        assert "classification summary" in out
        assert "latent-heat" in out
        assert "mean elephants/slot" in out

    def test_single_feature_and_parameters(self, matrix_file, capsys):
        code = main(
            [
                "classify",
                matrix_file,
                "--feature",
                "single",
                "--scheme",
                "constant-load",
                "--beta",
                "0.7",
                "--alpha",
                "0.8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0.7-constant-load single-feature" in out

    def test_aest_scheme(self, matrix_file, capsys):
        code = main(
            ["classify", matrix_file, "--scheme", "aest", "--window", "6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "aest latent-heat" in out


class TestClassifyJson:
    def test_json_summary(self, matrix_file, capsys):
        assert main(["classify", matrix_file, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["run"] == "0.8-constant-load latent-heat"
        assert summary["num_flows"] >= 400
        assert 0.0 <= summary["mean_traffic_fraction"] <= 1.0


@pytest.fixture(scope="module")
def stream_capture(tmp_path_factory):
    """A small pcap (plus RIB file and matrix artefacts) for `stream`."""
    rng = np.random.default_rng(12)
    prefixes = [Prefix.parse(f"10.{i}.0.0/16") for i in range(6)]
    rates = rng.uniform(1e5, 5e5, size=(6, 4))
    matrix = RateMatrix(prefixes, TimeAxis(0.0, 60.0, 4), rates)
    root = tmp_path_factory.mktemp("stream-cli")
    pcap_path = str(root / "link.pcap")
    write_pcap(matrix, pcap_path, PacketizerConfig(seed=3))
    npz_path = str(root / "matrix.npz")
    matrix.save_npz(npz_path)
    csv_path = str(root / "matrix.csv")
    matrix.save_csv(csv_path)
    rib_path = str(root / "rib.txt")
    with open(rib_path, "w") as stream:
        for prefix in prefixes:
            stream.write(f"{prefix}\n")
    return {
        "pcap": pcap_path,
        "npz": npz_path,
        "csv": csv_path,
        "rib": rib_path,
        "matrix": matrix,
    }


class TestStream:
    def test_pcap_with_rib(self, stream_capture, capsys):
        code = main(
            [
                "stream",
                stream_capture["pcap"],
                "--rib",
                stream_capture["rib"],
                "--slot-seconds",
                "60",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "slot    0" in out
        assert "stream summary" in out
        assert "packets_matched" in out

    def test_pcap_fixed_length_granularity(self, stream_capture, capsys):
        code = main(
            ["stream", stream_capture["pcap"], "--quiet", "--prefix-length", "16"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "num_flows" in out

    def test_pcap_json_summary(self, stream_capture, capsys):
        assert main(["stream", stream_capture["pcap"], "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["num_slots"] == 4
        assert summary["num_flows"] == 6
        assert summary["packets_unrouted"] == 0
        assert summary["packets_matched"] > 0

    def test_npz_replay_matches_pcap_stream(self, stream_capture, capsys):
        assert main(["stream", stream_capture["npz"], "--json"]) == 0
        from_npz = json.loads(capsys.readouterr().out)
        assert main(["stream", stream_capture["pcap"], "--json"]) == 0
        from_pcap = json.loads(capsys.readouterr().out)
        assert from_npz["num_slots"] == from_pcap["num_slots"]
        assert from_npz["mean_elephants_per_slot"] == pytest.approx(
            from_pcap["mean_elephants_per_slot"], abs=0.5
        )

    def test_csv_matrix_replay(self, stream_capture, capsys):
        assert main(["stream", stream_capture["csv"], "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "stream summary" in out

    def test_single_feature_scheme_options(self, stream_capture, capsys):
        code = main(
            [
                "stream",
                stream_capture["npz"],
                "--quiet",
                "--feature",
                "single",
                "--beta",
                "0.7",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0.7-constant-load single-feature" in out


class TestStreamBackends:
    def test_sketch_backend_on_pcap(self, stream_capture, capsys):
        code = main(
            [
                "stream",
                stream_capture["pcap"],
                "--json",
                "--backend",
                "space-saving",
                "--capacity",
                "4",
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["backend"] == "space-saving"
        assert summary["capacity"] == 4
        assert summary["tracked_flows"] <= 4
        assert summary["peak_tracked_flows"] <= 4
        assert 0.0 <= summary["mean_residual_fraction"] <= 1.0

    def test_sketch_backend_on_matrix_replay(self, stream_capture, capsys):
        code = main(
            [
                "stream",
                stream_capture["npz"],
                "--json",
                "--backend",
                "space-saving",
                "--capacity",
                "3",
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["backend"] == "space-saving"
        assert summary["peak_tracked_flows"] <= 3

    @pytest.mark.parametrize("capacity", [2, 3, 6])
    def test_sketch_matrix_replay_is_the_slot_level_table(
        self, stream_capture, capsys, capacity
    ):
        """``--backend`` on a matrix re-keys every slot through a
        ``SketchSlotSource`` over the replay: the answer is that
        source's, slot by slot."""
        from repro.distributed.envelope import elephant_entries
        from repro.pipeline import (
            MatrixSlotSource,
            SketchSlotSource,
            StreamingPipeline,
            make_backend,
        )

        argv = ["stream", stream_capture["npz"], "--json"]
        argv += ["--backend", "space-saving", "--capacity", str(capacity)]
        assert main(argv) == 0
        summary = json.loads(capsys.readouterr().out)
        backend = make_backend("space-saving", capacity=capacity)
        pipeline = StreamingPipeline(
            SketchSlotSource(
                MatrixSlotSource(stream_capture["matrix"]), backend
            )
        )
        expected = [
            elephant_entries(event.frame, event.verdict)
            for event in pipeline.events()
        ]
        assert summary["elephants_by_slot"] == json.loads(
            json.dumps(expected)
        )
        assert summary["peak_tracked_flows"] == backend.peak_tracked

    def test_memory_budget_sizes_capacity(self, stream_capture, capsys):
        from repro.pipeline.backends import TRACKED_ENTRY_BYTES

        code = main(
            [
                "stream",
                stream_capture["pcap"],
                "--json",
                "--backend",
                "space-saving",
                "--memory-budget",
                "64k",
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["capacity"] == (64 << 10) // TRACKED_ENTRY_BYTES

    def test_table_summary_includes_backend_fields(
        self, stream_capture, capsys
    ):
        code = main(
            [
                "stream",
                stream_capture["pcap"],
                "--quiet",
                "--backend",
                "space-saving",
                "--capacity",
                "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "peak_tracked_flows" in out
        assert "mean_residual_fraction" in out


class TestStreamAdmission:
    GATED = ["--backend", "space-saving", "--capacity", "64"]
    # a slot of the capture's flows is 0.75-3.75 MB: some stay outside
    GATE = ["--admission", "bloom", "--admission-threshold", "2e6"]

    @pytest.mark.parametrize("split", [[], ["--shards", "2"]])
    def test_gated_runs_report_rejected_bytes(
        self, stream_capture, capsys, split
    ):
        """`--shards` used to drop the number the unsharded run
        reports: the sharder had no such attribute to probe for."""
        code = main(
            [
                "stream",
                stream_capture["pcap"],
                "--json",
                *self.GATED,
                *self.GATE,
                *split,
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["admission"] == "bloom"
        assert summary["admission_rejected_bytes"] > 0.0
        assert summary["spec"]["admission_threshold"] == 2e6

    def test_fleet_has_no_gate_left_to_read(self, stream_capture, capsys):
        code = main(
            [
                "stream",
                stream_capture["pcap"],
                "--json",
                *self.GATED,
                "--admission",
                "bloom",
                "--workers",
                "2",
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["admission"] == "bloom"
        assert "admission_rejected_bytes" not in summary
        assert summary["spec"]["admission_threshold"] == 65536.0

    @pytest.mark.parametrize("backend", [[], GATED], ids=["exact", "sketch"])
    def test_threshold_without_gate_is_refused(
        self, stream_capture, capsys, backend
    ):
        """It used to be accepted and ignored, even by `exact`."""
        code = main(
            [
                "stream",
                stream_capture["pcap"],
                *backend,
                "--admission-threshold",
                "3000",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and len(err.splitlines()) == 1
        assert "--admission bloom" in err

    @pytest.mark.parametrize(
        "extra",
        [
            [],
            ["--admission", "bloom", "--admission-threshold", "3000"],
            ["--shards", "2"],
            ["--workers", "2"],
        ],
        ids=["plain", "bloom", "shards", "workers"],
    )
    def test_a_small_table_runs_every_way(self, stream_capture, capsys, extra):
        """A table smaller than the capture's flow count, gated, sharded
        and fleet-partitioned: each answers in the same summary."""
        code = main(
            [
                "stream",
                stream_capture["pcap"],
                "--json",
                "--backend",
                "space-saving",
                "--capacity",
                "6",
                "--seed",
                "3",
                *extra,
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["backend"] == "space-saving"
        assert summary["capacity"] == 6
        assert summary.get("peak_tracked_flows", 0) <= 6
        assert 0.0 <= summary["mean_residual_fraction"] <= 1.0
        assert summary["bytes_matched"] > 0


class TestStreamRefusesOutOfRangeNumbers:
    @pytest.mark.parametrize(
        "flags",
        [
            # tables too large to allocate (no page is ever touched)
            "--backend space-saving --capacity 100000000000000",
            "--backend space-saving --memory-budget 99999999g",
            "--backend space-saving --capacity 4611686018427387904",
            # seeds outside [0, 2**63)
            "--backend space-saving --capacity 4 --seed -1",
            "--backend space-saving --capacity 4 --admission bloom "
            "--seed 99999999999999999999999",
            "--sample-rate 10 --sample-mode probabilistic --sample-seed -1",
            # non-finite numbers, and a slot index past int64
            "--slot-seconds nan",
            "--slot-seconds inf",
            "--slot-seconds 1e-300",
            "--backend space-saving --capacity 4 --admission bloom "
            "--admission-threshold nan",
        ],
    )
    def test_one_error_line(self, stream_capture, capsys, flags):
        """Each used to be a traceback, a warning, or a silent wrong
        answer."""
        code = main(["stream", stream_capture["pcap"], *flags.split()])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("error:") == 1 and len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "rate,mode",
        [
            # past int64: an IndexError or OverflowError traceback
            (2**63, "deterministic"),
            (2**63, "probabilistic"),
            (2**63, "flow-records"),
            # below it, each inverted size wrapped silently
            (2**62, "deterministic"),
            (2**62, "flow-records"),
            # the largest rate the spec takes still cannot invert
            (2**63 - 1, "deterministic"),
            (2**63 - 1, "flow-records"),
        ],
    )
    def test_sample_rate_past_a_byte_count(
        self, stream_capture, capsys, rate, mode
    ):
        flags = ["--sample-rate", str(rate), "--sample-mode", mode]
        code = main(["stream", stream_capture["pcap"], *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("error:") == 1 and len(err.splitlines()) == 1
        assert f"sampling rate {rate} " in err


class TestStreamSharded:
    def test_too_many_shards_refused_before_any_table(
        self, stream_capture, capsys
    ):
        code = main(["stream", stream_capture["pcap"], "--shards", "99999"])
        assert code == 2
        assert "at most 65536 shards" in capsys.readouterr().err

    def test_sharded_exact_matches_single(self, stream_capture, capsys):
        assert main(["stream", stream_capture["pcap"], "--json"]) == 0
        single = json.loads(capsys.readouterr().out)
        code = main(
            ["stream", stream_capture["pcap"], "--json", "--shards", "4"]
        )
        assert code == 0
        sharded = json.loads(capsys.readouterr().out)
        assert sharded["shards"] == 4
        assert sharded["num_flows"] == single["num_flows"]
        assert (
            sharded["mean_elephants_per_slot"]
            == single["mean_elephants_per_slot"]
        )
        assert (
            sharded["mean_traffic_fraction"]
            == single["mean_traffic_fraction"]
        )

    def test_sharded_sketch_backend(self, stream_capture, capsys):
        code = main(
            [
                "stream",
                stream_capture["pcap"],
                "--json",
                "--backend",
                "space-saving",
                "--capacity",
                "8",
                "--shards",
                "2",
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["shards"] == 2
        assert summary["capacity"] == 8
        assert summary["peak_tracked_flows"] <= 8

    def test_budget_accounts_for_shards(self, stream_capture, capsys):
        from repro.pipeline.backends import TRACKED_ENTRY_BYTES

        code = main(
            [
                "stream",
                stream_capture["pcap"],
                "--json",
                "--backend",
                "space-saving",
                "--shards",
                "4",
                "--memory-budget",
                "64k",
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        per_shard = ((64 << 10) // 4) // TRACKED_ENTRY_BYTES
        assert summary["capacity"] == 4 * per_shard
        # the old bug would have sized each shard at the full budget
        assert summary["capacity"] <= (64 << 10) // TRACKED_ENTRY_BYTES


class TestMerge:
    @pytest.fixture()
    def summary_files(self, stream_capture, tmp_path):
        paths = []
        for monitor in range(2):
            path = str(tmp_path / f"mon{monitor}.npz")
            code = main(
                [
                    "stream",
                    stream_capture["pcap"],
                    "--quiet",
                    "--backend",
                    "space-saving",
                    "--capacity",
                    "6",
                    "--summary-out",
                    path,
                ]
            )
            assert code == 0
            paths.append(path)
        return paths

    def test_summary_out_reports_path(self, stream_capture, tmp_path, capsys):
        path = str(tmp_path / "mon.npz")
        code = main(
            ["stream", stream_capture["pcap"], "--json", "--summary-out", path]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["summary_out"] == path

    def test_merge_table_output(self, summary_files, capsys):
        assert main(["merge", *summary_files, "--k", "8"]) == 0
        out = capsys.readouterr().out
        assert "merge summary" in out
        assert "monitors" in out
        assert "slot    0" in out

    def test_merge_json_output(self, summary_files, capsys):
        assert main(["merge", *summary_files, "--json", "--k", "8"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["monitors"] == 2
        assert summary["num_slots"] == 4
        assert summary["k"] == 8
        assert summary["merged_bytes"] > 0
        assert 0.0 <= summary["mean_residual_fraction"] <= 1.0

    def test_merge_json_reports_elephants(self, summary_files, capsys):
        """`merge --json` carries per-slot elephants, like `query`."""
        assert main(["merge", *summary_files, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        by_slot = summary["elephants_by_slot"]
        assert len(by_slot) == summary["num_slots"]
        assert summary["elephants"] == by_slot[-1]
        for entries in by_slot:
            rates = [entry["rate_bps"] for entry in entries]
            assert rates == sorted(rates, reverse=True)

    def test_merge_fill_gaps_flag(self, summary_files, capsys):
        code = main(["merge", *summary_files, "--fill-gaps", "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["num_slots"] == 4

    def test_merge_missing_file(self, tmp_path, capsys):
        assert main(["merge", str(tmp_path / "absent.npz")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_merge_corrupt_file(self, tmp_path, capsys):
        path = str(tmp_path / "garbage.npz")
        with open(path, "wb") as stream:
            stream.write(b"not a summary archive")
        assert main(["merge", path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_merge_mixed_grids(self, stream_capture, tmp_path, capsys):
        fast = str(tmp_path / "fast.npz")
        slow = str(tmp_path / "slow.npz")
        code = main(
            [
                "stream",
                stream_capture["pcap"],
                "--quiet",
                "--slot-seconds",
                "60",
                "--summary-out",
                fast,
            ]
        )
        assert code == 0
        code = main(
            [
                "stream",
                stream_capture["pcap"],
                "--quiet",
                "--slot-seconds",
                "30",
                "--summary-out",
                slow,
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["merge", fast, slow]) == 2
        assert "grid" in capsys.readouterr().err

    def test_merge_of_off_grid_summaries_is_one_error_line(
        self, tmp_path, capsys
    ):
        """A matrix whose axis starts half a slot off the grid streams
        summaries off it. `merge` refuses them as a live collector
        refuses them over `--connect`: one error line, exit 2."""
        from distributed.service_harness import ServiceHandle

        from repro.distributed import CollectorService

        prefixes = [Prefix.parse(f"10.{i}.0.0/16") for i in range(4)]
        rates = np.full((4, 3), 1e5)
        matrix = RateMatrix(prefixes, TimeAxis(30.0, 60.0, 3), rates)
        matrix.save_npz(str(tmp_path / "m.npz"))
        path = str(tmp_path / "s.npz")
        argv = ["stream", str(tmp_path / "m.npz"), "--quiet"]
        assert main([*argv, "--summary-out", path]) == 0
        capsys.readouterr()
        assert main(["merge", path]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and len(err.splitlines()) == 1
        assert "does not align" in err
        with ServiceHandle(CollectorService()) as live:
            host, port = live.address
            assert main([*argv, "--connect", f"{host}:{port}"]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and len(err.splitlines()) == 1
        # the daemon's reason, not the broken pipe its hang-up leaves
        assert "does not align" in err

    def test_merge_of_a_run_with_two_summaries_for_one_cell(
        self, tmp_path, capsys
    ):
        """Summed, they used to merge as one slot of both volumes. The
        file keeps its slot numbers in order; two of them name one
        interval. `save_summaries` refuses to write such a run, so the
        file is a sound one with its last start moved onto the one
        before."""
        prefixes = [Prefix.parse("10.0.0.0/16")]
        run = [
            SlotSummary(0, 0.0, 60.0, prefixes, np.array([100.0])),
            SlotSummary(1, 60.0, 60.0, prefixes, np.array([70.0])),
            SlotSummary(2, 120.0, 60.0, prefixes, np.array([50.0])),
        ]
        save_summaries(str(tmp_path / "s.npz"), run)
        with np.load(tmp_path / "s.npz") as archive:
            data = dict(archive)
        data["starts"] = np.array([0.0, 60.0, 60.0])
        with open(tmp_path / "s.npz", "wb") as stream:
            np.savez(stream, **data)
        assert main(["merge", str(tmp_path / "s.npz")]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and len(err.splitlines()) == 1
        assert "monitor run 0 has two summaries for grid cell 1" in err


class TestStreamParallel:
    #: `stream --json` answers in the shared envelope plus these keys.
    COMMON_KEYS = {
        "schema",
        "command",
        "spec",
        "elephants",
        "elephants_by_slot",
        "series",
        "run",
        "backend",
        "num_slots",
        "num_flows",
        "mean_elephants_per_slot",
        "mean_traffic_fraction",
        "mean_residual_fraction",
        "capacity",
        "packets_seen",
        "packets_matched",
        "packets_unrouted",
        "packets_skipped",
        "bytes_matched",
    }
    TABLE_KEYS = {"tracked_flows", "peak_tracked_flows", "population_rows"}

    @pytest.mark.parametrize(
        "split, extra",
        [
            ([], TABLE_KEYS),
            (["--shards", "2"], TABLE_KEYS | {"shards"}),
            (["--workers", "2"], {"workers"}),
        ],
    )
    def test_summary_keys_per_mode(self, stream_capture, capsys, split, extra):
        """One `stream` body serves all three modes; each keeps its own
        key set (a fleet's tables died with its workers, so it has no
        table-occupancy facts to report)."""
        sketch = ["--backend", "space-saving", "--capacity", "8"]
        code = main(
            ["stream", stream_capture["pcap"], "--json", *sketch, *split]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert set(summary) == self.COMMON_KEYS | extra
        assert "engine" not in summary["spec"]

    def test_workers_match_single_process_stream(
        self, stream_capture, capsys
    ):
        code = main(
            ["stream", stream_capture["pcap"], "--json", "--workers", "2"]
        )
        assert code == 0
        parallel = json.loads(capsys.readouterr().out)
        code = main(
            ["stream", stream_capture["pcap"], "--json", "--shards", "2"]
        )
        assert code == 0
        sharded = json.loads(capsys.readouterr().out)
        assert parallel["workers"] == 2
        assert parallel["num_slots"] == sharded["num_slots"]
        assert parallel["num_flows"] == sharded["num_flows"]
        assert parallel["bytes_matched"] == sharded["bytes_matched"]
        assert (
            parallel["mean_elephants_per_slot"]
            == sharded["mean_elephants_per_slot"]
        )

    def test_sketch_workers_report_total_capacity(
        self, stream_capture, capsys
    ):
        code = main(
            [
                "stream",
                stream_capture["pcap"],
                "--json",
                "--workers",
                "2",
                "--backend",
                "space-saving",
                "--capacity",
                "8",
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["capacity"] == 8
        assert 0.0 <= summary["mean_residual_fraction"] <= 1.0

    def test_workers_summary_out_feeds_merge(
        self, stream_capture, tmp_path, capsys
    ):
        path = str(tmp_path / "merged.npz")
        code = main(
            [
                "stream",
                stream_capture["pcap"],
                "--quiet",
                "--workers",
                "2",
                "--summary-out",
                path,
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["merge", path, "--quiet"]) == 0

    @pytest.mark.parametrize(
        "options",
        [[], ["--backend", "space-saving", "--capacity", "8"]],
        ids=["exact", "sketch"],
    )
    def test_workers_reject_matrix_replay(
        self, stream_capture, capsys, options
    ):
        """A fleet partitions packets and a matrix has none: refused
        with one error: line before any worker process starts."""
        import multiprocessing

        argv = ["stream", stream_capture["npz"], "--workers", "2", *options]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "no packets to partition" in lines[0]
        assert multiprocessing.active_children() == []

    def test_workers_and_shards_conflict(self, stream_capture, capsys):
        code = main(
            ["stream", stream_capture["pcap"], "--workers", "2", "--shards", "2"]
        )
        assert code == 2
        assert "alternatives" in capsys.readouterr().err

    def test_workers_below_one(self, stream_capture, capsys):
        assert main(["stream", stream_capture["pcap"], "--workers", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "plan", ["worker:0", "worker:1:hard", "worker:0:midslot", "reader"]
    )
    def test_injected_fleet_fault_exits_2_cleanly(
        self, stream_capture, monkeypatch, capsys, plan
    ):
        """A dead worker or reader is one error: line, exit 2, no
        traceback, no orphaned processes — the contract a monitor
        wrapper keys on. ``REPRO_FAULT_PLAN`` is the only variable the
        CLI reads, and ``--workers`` must hand its plan to the fleet."""
        import multiprocessing

        monkeypatch.setenv("REPRO_FAULT_PLAN", plan)
        code = main(
            ["stream", stream_capture["pcap"], "--quiet", "--workers", "2"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert "Traceback" not in captured.out
        assert multiprocessing.active_children() == []

    def test_unknown_start_method_exits_2_before_starting(
        self, stream_capture, monkeypatch, capsys
    ):
        """An environment variable is outside input: a start method
        the platform lacks is one error: line naming the variable and
        the choices, not multiprocessing's ValueError traceback."""
        import multiprocessing

        from repro.distributed import shm_ring

        def refuse(*args):
            raise AssertionError("a ring was created")

        monkeypatch.setattr(shm_ring.ShmRing, "create", refuse)
        monkeypatch.setenv("REPRO_RUNNER_START_METHOD", "bogus")
        code = main(
            [
                "stream",
                stream_capture["pcap"],
                "--prefix-length",
                "24",
                "--workers",
                "2",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: REPRO_RUNNER_START_METHOD")
        assert captured.err.count("\n") == 1
        for method in multiprocessing.get_all_start_methods():
            assert method in captured.err
        assert captured.out == ""
        assert multiprocessing.active_children() == []


class TestMergeFormatErrors:
    def test_truncated_summary_file_is_clean_exit_2(
        self, stream_capture, tmp_path, capsys
    ):
        """A summary artefact cut off mid-write must not traceback."""
        whole = str(tmp_path / "whole.npz")
        code = main(
            ["stream", stream_capture["pcap"], "--quiet", "--summary-out", whole]
        )
        assert code == 0
        capsys.readouterr()
        with open(whole, "rb") as stream:
            payload = stream.read()
        cut = str(tmp_path / "cut.npz")
        with open(cut, "wb") as stream:
            stream.write(payload[: len(payload) // 2])
        assert main(["merge", cut]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_truncated_summary_raises_format_error(
        self, stream_capture, tmp_path
    ):
        from repro.distributed import load_summaries
        from repro.errors import SummaryFormatError

        whole = str(tmp_path / "whole.npz")
        code = main(
            ["stream", stream_capture["pcap"], "--quiet", "--summary-out", whole]
        )
        assert code == 0
        with open(whole, "rb") as stream:
            payload = stream.read()
        cut = str(tmp_path / "cut.npz")
        with open(cut, "wb") as stream:
            stream.write(payload[: len(payload) // 2])
        with pytest.raises(SummaryFormatError):
            load_summaries(cut)

    def test_corrupt_summary_bytes_raise_format_error(self):
        from repro.distributed import SlotSummary
        from repro.errors import SummaryFormatError

        record = SlotSummary(
            slot=0,
            start=0.0,
            slot_seconds=60.0,
            prefixes=(Prefix.parse("10.0.0.0/16"),),
            volumes=np.array([10.0]),
        ).to_bytes()
        with pytest.raises(SummaryFormatError):
            SlotSummary.from_bytes(record[:-3])
        with pytest.raises(SummaryFormatError):
            SlotSummary.from_bytes(b"XXXX" + record[4:])


class TestStreamErrors:
    def test_capacity_below_one(self, stream_capture, capsys):
        code = main(
            [
                "stream",
                stream_capture["pcap"],
                "--backend",
                "space-saving",
                "--capacity",
                "0",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_sketch_without_capacity(self, stream_capture, capsys):
        code = main(
            ["stream", stream_capture["pcap"], "--backend", "space-saving"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--capacity" in err

    def test_exact_rejects_capacity(self, stream_capture, capsys):
        assert main(["stream", stream_capture["pcap"], "--capacity", "8"]) == 2
        assert "exact" in capsys.readouterr().err

    def test_capacity_and_budget_conflict(self, stream_capture, capsys):
        code = main(
            [
                "stream",
                stream_capture["pcap"],
                "--backend",
                "space-saving",
                "--capacity",
                "8",
                "--memory-budget",
                "1m",
            ]
        )
        assert code == 2
        assert "alternatives" in capsys.readouterr().err

    def test_bad_memory_budget(self, stream_capture, capsys):
        code = main(
            [
                "stream",
                stream_capture["pcap"],
                "--backend",
                "space-saving",
                "--memory-budget",
                "plenty",
            ]
        )
        assert code == 2
        assert "memory budget" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name", ["bloom-filter", "count-min", "sample-hold", "misra-gries"]
    )
    def test_unknown_backend_rejected_by_parser(
        self, stream_capture, capsys, name
    ):
        with pytest.raises(SystemExit) as raised:
            main(["stream", stream_capture["pcap"], "--backend", name])
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert "choose from 'exact', 'space-saving')" in err

    def test_corrupt_npz(self, tmp_path, capsys):
        path = str(tmp_path / "corrupt.npz")
        with open(path, "wb") as stream:
            stream.write(b"this is not a zip archive")
        assert main(["stream", path]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "corrupt.npz" in err

    @pytest.mark.parametrize("name", ["nope.npz", "nope.csv", "nope.pcap"])
    def test_missing_input_file(self, tmp_path, name, capsys):
        """Every input flavour fails with error:/exit 2, never a
        traceback — the contract a monitor wrapper keys on."""
        assert main(["stream", str(tmp_path / name)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case", ["csv-header", "csv-mid-file", "flow-csv-mid-file", "rib"]
    )
    def test_non_utf8_text_input(self, stream_capture, tmp_path, case, capsys):
        """Hostile bytes in any text input: one error line, exit 2."""
        garbage = b"\xff\xfe\x00x\n"
        # a text reader decodes ahead in blocks; enough valid rows put
        # the garbage past the header sniff, in the middle of the scan
        rows = range(2000)
        path = tmp_path / ("bad.rib" if case == "rib" else "bad.csv")
        if case == "csv-header":
            path.write_bytes(garbage)
        elif case == "csv-mid-file":
            path.write_bytes(
                b"timestamp,destination,wire_bytes\n"
                + b"".join(b"%d.0,10.0.0.1,100\n" % i for i in rows)
                + garbage
            )
        elif case == "flow-csv-mid-file":
            path.write_bytes(
                b"flow_id,source_node_id,dest_node_id,path,start_time,"
                b"end_time,duration,amount_sent,average_bandwidth,"
                b"metadata\n"
                + b"".join(
                    b"%d,1,167772161,,%d,%d,1,100,1,x\n"
                    % (i, i * 10**9, i * 10**9 + 1)
                    for i in rows
                )
                + garbage
            )
        else:
            path.write_bytes(b"10.0.0.0/8\n" + garbage)
        argv = (
            ["stream", stream_capture["pcap"], "--rib", str(path)]
            if case == "rib"
            else ["stream", str(path), "--quiet"]
        )
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ") and path.name in err
        assert len(err.strip().splitlines()) == 1

    def test_missing_rib_file(self, stream_capture, tmp_path, capsys):
        code = main(
            [
                "stream",
                stream_capture["pcap"],
                "--rib",
                str(tmp_path / "nope.rib"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "RIB" in err

    def test_rib_fault_names_file_and_line(
        self, stream_capture, tmp_path, capsys
    ):
        path = tmp_path / "bad.rib"
        path.write_text("10.0.0.0/8\n# a comment\n10.1.2.3/16\n")
        argv = ["stream", stream_capture["pcap"], "--rib", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: RIB file {path} line 3: "
            "'10.1.2.3/16' has host bits set\n"
        )

    def test_rib_listing_a_prefix_twice_loads(
        self, stream_capture, tmp_path, capsys
    ):
        once = open(stream_capture["rib"]).read()
        path = tmp_path / "paths.rib"
        path.write_text(once + once)
        argv = ["stream", stream_capture["pcap"], "--json", "--rib"]
        assert main(argv + [stream_capture["rib"]]) == 0
        expected = json.loads(capsys.readouterr().out)
        assert main(argv + [str(path)]) == 0
        answer = json.loads(capsys.readouterr().out)
        assert answer["elephants_by_slot"] == expected["elephants_by_slot"]

    def test_mismatched_matrix_csv_header(self, tmp_path, capsys):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as stream:
            stream.write("prefix,0.0\n10.0.0.0/16,100\n")  # 1 slot column
        assert main(["stream", path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_packet_csv_with_missing_columns(self, tmp_path, capsys):
        path = str(tmp_path / "rows.csv")
        with open(path, "w") as stream:
            stream.write("timestamp,destination,wire_bytes\n")
            stream.write("0.5,10.0.0.1\n")  # third column missing
        assert main(["stream", path]) == 2
        assert "3 columns" in capsys.readouterr().err

    def test_corrupt_npz_classify(self, tmp_path, capsys):
        path = str(tmp_path / "corrupt.npz")
        with open(path, "wb") as stream:
            stream.write(b"\x00" * 16)
        assert main(["classify", path]) == 2
        assert "error:" in capsys.readouterr().err


class TestCollectorServiceCli:
    """CLI surface of the live collector: stream --connect and query."""

    @pytest.fixture()
    def live(self):
        from distributed.service_harness import ServiceHandle

        from repro.distributed import CollectorService

        with ServiceHandle(CollectorService()) as handle:
            yield handle

    @staticmethod
    def _address(handle):
        host, port = handle.address
        return f"{host}:{port}"

    def test_stream_connect_publishes_every_slot(
        self, stream_capture, live, capsys
    ):
        address = self._address(live)
        code = main(
            [
                "stream",
                stream_capture["npz"],
                "--quiet",
                "--json",
                "--connect",
                address,
                "--monitor",
                "mon-cli",
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["connect"] == address
        assert summary["published"] == summary["num_slots"] == 4
        assert summary["stale"] == 0
        assert summary["skipped"] == 0

    def test_stream_connect_json_keys_do_not_depend_on_retry(
        self, stream_capture, live, capsys
    ):
        """One client, one summary shape: --retry only sets a budget."""
        reports = []
        for link, flags in (("plain", []), ("budget", ["--retry", "3"])):
            code = main(
                [
                    "stream",
                    stream_capture["npz"],
                    "--quiet",
                    "--json",
                    "--connect",
                    self._address(live),
                    "--monitor",
                    "mon-cli",
                    "--link-name",
                    link,
                    *flags,
                ]
            )
            assert code == 0
            reports.append(json.loads(capsys.readouterr().out))
        plain, budget = reports
        assert plain["reconnects"] == 0
        assert plain["published"] == plain["num_slots"]
        assert plain == budget

    def test_stream_connect_severed_fails_fast_without_retry(
        self, stream_capture, live, capsys, monkeypatch
    ):
        """Without --retry a dead collector socket is a clean error.

        A severed connection mid-publish must surface as the CLI's
        `error:` + exit 2 contract, not a ConnectionError traceback.
        """
        monkeypatch.setenv("REPRO_FAULT_PLAN", "sever:mon-cli:2")
        code = main(
            [
                "stream",
                stream_capture["npz"],
                "--quiet",
                "--connect",
                self._address(live),
                "--monitor",
                "mon-cli",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "collector connection lost" in err

    def test_query_table_after_stream(self, stream_capture, live, capsys):
        address = self._address(live)
        code = main(
            [
                "stream",
                stream_capture["npz"],
                "--quiet",
                "--connect",
                address,
                "--monitor",
                "mon-cli",
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["query", address]) == 0
        out = capsys.readouterr().out
        assert "collector state" in out
        assert "0 connected / 1 known" in out
        assert "current elephants" in out

    def test_query_json_matches_merge_json(
        self, stream_capture, live, tmp_path, capsys
    ):
        """`query --json` and `merge --json` agree elephant-for-elephant.

        Both ends serialise through the shared ``elephant_entries``
        helper, so the live service's answer for a run must equal the
        offline merge of the very same summaries.
        """
        address = self._address(live)
        path = str(tmp_path / "mon.npz")
        code = main(
            [
                "stream",
                stream_capture["pcap"],
                "--quiet",
                "--summary-out",
                path,
                "--connect",
                address,
                "--monitor",
                "mon-a",
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["query", address, "--json"]) == 0
        live_report = json.loads(capsys.readouterr().out)
        assert main(["merge", path, "--json"]) == 0
        merged = json.loads(capsys.readouterr().out)
        assert live_report["elephants_by_slot"] == merged["elephants_by_slot"]
        assert live_report["elephants"] == merged["elephants"]
        assert live_report["elephants"]

    def test_workers_stream_publishes_to_service(
        self, stream_capture, live, capsys
    ):
        address = self._address(live)
        code = main(
            [
                "stream",
                stream_capture["pcap"],
                "--quiet",
                "--json",
                "--workers",
                "2",
                "--connect",
                address,
                "--monitor",
                "mon-fleet",
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["published"] == summary["num_slots"]
        capsys.readouterr()
        assert main(["query", address, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["slots"] == summary["num_slots"]

    def test_collect_daemon_serves_one_run(
        self, stream_capture, tmp_path, capsys
    ):
        """`repro collect --once 1` serves a full run, then exits 0."""
        port_file = str(tmp_path / "port.txt")
        outcome = {}

        def _serve():
            outcome["code"] = main(
                [
                    "collect",
                    "--listen",
                    "127.0.0.1:0",
                    "--once",
                    "1",
                    "--linger",
                    "5",
                    "--port-file",
                    port_file,
                    "--quiet",
                ]
            )

        thread = threading.Thread(target=_serve, daemon=True)
        thread.start()
        address = ""
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and not address:
            try:
                with open(port_file) as handle:
                    address = handle.read().strip()
            except FileNotFoundError:
                time.sleep(0.05)
        assert address, "collector never wrote its port file"
        code = main(
            ["stream", stream_capture["npz"], "--quiet", "--connect", address]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["query", address]) == 0
        assert "collector state" in capsys.readouterr().out
        thread.join(timeout=15.0)
        assert not thread.is_alive()
        assert outcome["code"] == 0

    def test_query_since_cell_head_plus_delta_is_full(
        self, stream_capture, live, capsys
    ):
        """`--since-cell N` lists the slots from cell N on, as received;
        everything else in the reply still describes the whole link."""
        address = self._address(live)
        code = main(
            ["stream", stream_capture["npz"], "--quiet", "--connect", address]
        )
        assert code == 0
        capsys.readouterr()

        def query(*flags):
            assert main(["query", address, *flags]) == 0
            return capsys.readouterr().out

        full = json.loads(query("--json"))
        assert full["slots"] == 4
        cell = full["since_cell"] + 2
        delta = json.loads(query("--since-cell", str(cell), "--json"))
        head = full["elephants_by_slot"][:2]
        assert head + delta["elephants_by_slot"] == full["elephants_by_slot"]
        assert delta.pop("since_cell") == cell
        assert len(delta.pop("elephants_by_slot")) == 2
        assert delta.items() <= full.items()
        # the next poll's cursor is this reply's next_cell: nothing new
        cursor = str(delta["next_cell"])
        latest = json.loads(query("--since-cell", cursor, "--json"))
        assert latest["elephants_by_slot"] == []
        # the table describes the whole link either way
        assert query("--since-cell", cursor) == query()

    @pytest.mark.parametrize("cell", ["-1", "9223372036854775808"])
    def test_query_since_cell_off_the_grid_exits_2(self, live, capsys, cell):
        assert main(["query", self._address(live), "--since-cell", cell]) == 2
        captured = capsys.readouterr()
        error = "error: since_cell must be a non-negative integer cell\n"
        assert (captured.out, captured.err) == ("", error)

    def test_query_unreachable_address_exits_2(self, capsys):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert main(["query", f"127.0.0.1:{port}"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "cannot reach" in err

    def test_stream_connect_unreachable_exits_2(
        self, stream_capture, capsys
    ):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code = main(
            [
                "stream",
                stream_capture["npz"],
                "--quiet",
                "--connect",
                f"127.0.0.1:{port}",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "cannot reach" in err

    @pytest.mark.parametrize(
        "flags", [["--retry", "-3"], ["--retry", "2", "--retry-backoff", "-1"]]
    )
    def test_negative_retry_flags_exit_2_before_dialing(
        self, stream_capture, capsys, flags
    ):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code = main(
            [
                "stream",
                stream_capture["npz"],
                "--quiet",
                "--connect",
                f"127.0.0.1:{port}",
                *flags,
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and ">= 0" in err
        assert "cannot reach" not in err

    def test_malformed_address_exits_2(self, capsys):
        assert main(["query", "not-an-address"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_collect_flag_validation(self, capsys):
        assert main(["collect", "--max-inflight", "0"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["collect", "--once", "0"]) == 2
        assert "error:" in capsys.readouterr().err
        # refused before binding, not at every monitor's first seal
        assert main(["collect", "--k", "-1"]) == 2
        assert "error: --k" in capsys.readouterr().err


@pytest.fixture()
def no_dns(monkeypatch):
    """``.invalid`` names fail to resolve (RFC 6761) without a query."""
    real_getaddrinfo = socket.getaddrinfo

    def getaddrinfo(host, *args, **kwargs):
        if str(host).endswith(".invalid"):
            raise socket.gaierror(socket.EAI_NONAME, "Name not known")
        return real_getaddrinfo(host, *args, **kwargs)

    monkeypatch.setattr(socket, "getaddrinfo", getaddrinfo)


class TestCommandsRefuseWhatTheyCannotDo:
    @pytest.mark.parametrize(
        "argv",
        [
            "collect --listen 127.0.0.1:{taken} --once 1",
            "collect --listen nothost.invalid:5 --once 1",
            # paths that cannot be made: below a regular file
            "collect --once 1 --state-dir {file}/state",
            "collect --once 1 --port-file {file}/port",
            "simulate {file}/m.npz --scale 0.02",
            # NaN passed the (0, 1] check; numpy refused the seed
            "simulate {dir}/m.npz --scale nan",
            "simulate {dir}/m.npz --seed -1",
        ],
    )
    def test_one_error_line(self, tmp_path, no_dns, capsys, argv):
        """Each used to be a traceback and exit code 1."""
        regular = tmp_path / "file"
        regular.write_text("")
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            words = argv.format(taken=port, file=regular, dir=tmp_path)
            code = main(words.split())
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("error:") == 1 and len(err.splitlines()) == 1
        assert "Traceback" not in err


#: The sound archives with one member swapped for a malformed value:
#: ``how`` -> (member, value); an archive without the member is kept.
NPZ_MEMBERS = {
    "version-pair": ("version", np.array([2, 2])),
    "slot-seconds-pair": ("slot_seconds", np.array([60.0, 60.0])),
    "axis-scalar": ("axis", np.array(60.0)),
    "lengths-2d": ("lengths", np.full((4, 2), 16, dtype=np.uint8)),
    "start-nan": ("axis", np.array([np.nan, 60.0, 3.0])),
    "slot-nan": ("axis", np.array([0.0, np.nan, 3.0])),
    "slot-inf": ("axis", np.array([0.0, np.inf, 3.0])),
}
#: The ways ``_damage_npz`` breaks an archive.
NPZ_DAMAGE = (
    "deflate",
    "encrypted",
    "header",
    "method",
    "empty",
    "npy",
    *NPZ_MEMBERS,
)


def _damage_npz(path, how):
    """Break the ``.npz`` at ``path`` the way ``how`` names."""
    if how in NPZ_MEMBERS:
        member, value = NPZ_MEMBERS[how]
        with np.load(path) as archive:
            members = dict(archive)
        if member in members:
            members[member] = value
            np.savez(path, **members)
        return
    data = bytearray(path.read_bytes())
    if how == "deflate":  # garbage where the first member's stream was
        name_length, extra_length = struct.unpack_from("<HH", data, 26)
        start = 30 + name_length + extra_length
        data[start : start + 8] = b"\xff" * 8
    elif how == "encrypted":  # the central directory's encryption bit
        data[data.index(b"PK\x01\x02") + 8] |= 1
    elif how == "method":  # a compression method zipfile does not know
        central = data.index(b"PK\x01\x02")
        data[central + 10 : central + 12] = data[8:10] = b"\x63\x00"
    elif how == "empty":
        data = bytearray()
    elif how == "npy":  # a plain .npy under the .npz name
        buffer = io.BytesIO()
        np.save(buffer, np.ones(3))
        data = bytearray(buffer.getvalue())
    else:  # an unbalanced .npy header, under a CRC that checks out
        assert how == "header", how
        with zipfile.ZipFile(path) as archive:
            members = {name: archive.read(name) for name in archive.namelist()}
        with zipfile.ZipFile(path, "w") as archive:
            for name, body in members.items():
                archive.writestr(name, body.replace(b"False", b"(alse"))
        return
    path.write_bytes(bytes(data))


class TestDamagedInputsAreOneErrorLine:
    @pytest.mark.parametrize(
        "argv, damage",
        [
            # packet CSV rows float() or int() refuse
            ("stream {dir}/t.csv", "abc,10.0.0.1,100"),
            ("stream {dir}/t.csv", "0.5,xyz,100"),
            ("stream {dir}/t.csv", "0.5,10.0.0.1,1W0"),
            # digits str.isdigit() takes and int() does not
            ("stream {dir}/t.csv", "0.5,1\u00b27.0.0.1,100"),
            # integers int64 cannot hold, and a negative size
            (
                "stream {dir}/t.csv --prefix-length 24",
                "0.5,10.0.0.1,99999999999999999999",
            ),
            ("stream {dir}/t.csv --prefix-length 24", "0.5,10.0.0.1,-100"),
            (
                "stream {dir}/f.csv --prefix-length 24",
                "1,0,10.0.0.1,,0,1,1,99999999999999999999,0.0,",
            ),
            (
                "stream {dir}/f.csv --prefix-length 24",
                "1,0,99999999999999999999,,0,1,1,100,0.0,",
            ),
            # a timestamp ~3e9 empty slots past the first
            ("stream {dir}/t.csv", "1e12,10.0.0.1,100"),
            ("stream {dir}/ok.csv --rib {dir}/rib.txt", "10.0.0.0/1\u00b3"),
            ("merge {dir}/s.npz", "deflate"),
            ("classify {dir}/m.npz", "deflate"),
            ("stream {dir}/m.npz", "deflate"),
            ("classify {dir}/m.npz", "encrypted"),
            ("stream {dir}/m.npz", "header"),
            ("merge {dir}/s.npz", "method"),
            ("merge {dir}/s.npz", "empty"),
            ("classify {dir}/m.npz", "npy"),
            # members of the wrong shape
            ("merge {dir}/s.npz", "version-pair"),
            ("merge {dir}/s.npz", "slot-seconds-pair"),
            ("classify {dir}/m.npz", "axis-scalar"),
            ("stream {dir}/m.npz", "axis-scalar"),
            ("classify {dir}/m.npz", "lengths-2d"),
            ("stream {dir}/m.npz", "lengths-2d"),
            # a time axis that is not finite
            ("classify {dir}/m.npz --json", "start-nan"),
            ("classify {dir}/m.npz --json", "slot-nan"),
            ("classify {dir}/m.npz --json", "slot-inf"),
            ("stream {dir}/m.npz --json", "slot-nan"),
        ],
    )
    def test_one_error_line(self, tmp_path, capsys, argv, damage):
        """Each used to be a traceback: ValueError, zlib.error,
        RuntimeError, tokenize.TokenError, NotImplementedError, EOFError,
        TypeError or OverflowError — or, for a negative size, a
        misleading "no active flows" — or, for the far timestamp, a
        frame for every empty slot first — or, for a NaN or infinite
        time axis, exit 0 with ``NaN`` or ``Infinity`` in the JSON."""
        (tmp_path / "ok.csv").write_text("0.5,10.0.0.1,100\n")
        flows = "flow_id,source_node_id\n0,0,10.0.0.1,,0,1,1,100,0.0,"
        sound_files = (
            ("t.csv", "0.5,10.0.0.1,100"),
            ("f.csv", flows),
            ("rib.txt", ""),
        )
        for name, sound in sound_files:
            text = f"{sound}\n{damage}\n"
            (tmp_path / name).write_text(text, encoding="utf-8")
        prefixes = [Prefix.parse(f"10.{i}.0.0/16") for i in range(4)]
        matrix = RateMatrix(prefixes, TimeAxis(0.0, 60.0, 3), np.ones((4, 3)))
        matrix.save_npz(str(tmp_path / "m.npz"))
        run = [SlotSummary(0, 0.0, 60.0, prefixes, np.ones(4))]
        save_summaries(str(tmp_path / "s.npz"), run)
        if damage in NPZ_DAMAGE:
            _damage_npz(tmp_path / "m.npz", damage)
            _damage_npz(tmp_path / "s.npz", damage)
        code = main(argv.format(dir=tmp_path).split())
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("error:") == 1 and len(err.splitlines()) == 1
        assert "Traceback" not in err


class TestCollectRefusals:
    def test_os_error_becomes_one_repro_error(self):
        with pytest.raises(ReproError, match=r"^cannot use x: No such file"):
            with _refused("cannot use x"):
                open("/nonexistent-dir/file")

    def test_other_errors_pass_through(self):
        with pytest.raises(KeyError):
            with _refused("cannot use x"):
                raise KeyError("k")

    def test_port_file_written_whole_without_a_temp_file(self, tmp_path):
        path = tmp_path / "port"
        _write_port_file(str(path), "127.0.0.1", 4242)
        assert path.read_text() == "127.0.0.1:4242\n"
        assert [entry.name for entry in tmp_path.iterdir()] == ["port"]


class TestFigures:
    def test_renders_all_three_panels(self, capsys):
        assert main(["figures", "--scale", "0.08"]) == 0
        out = capsys.readouterr().out
        assert "Fig 1(a)" in out
        assert "Fig 1(b)" in out
        assert "Fig 1(c)" in out


class TestParser:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestOffload:
    """CLI surface of the flow-table offload evaluation."""

    def test_table_output_on_pcap(self, stream_capture, capsys):
        code = main(
            [
                "offload",
                stream_capture["pcap"],
                "--rib",
                stream_capture["rib"],
                "--table-size",
                "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "offload summary" in out
        assert "byte coverage" in out
        assert "rules=" in out  # per-slot lines precede the table

    def test_json_envelope(self, stream_capture, capsys):
        code = main(
            [
                "offload",
                stream_capture["npz"],
                "--table-size",
                "8",
                "--json",
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["schema"] == "repro.result/1"
        assert summary["command"] == "offload"
        assert summary["series"]["num_slots"] == 4
        facts = summary["offload"]
        assert facts["table_size"] == 8
        assert facts["num_slots"] == 4
        assert len(facts["coverage_by_slot"]) == 4
        assert len(facts["occupancy_by_slot"]) == 4
        # slot 0 enters with an empty table, so coverage starts at 0
        assert facts["coverage_by_slot"][0] == 0.0
        assert facts["byte_coverage"] > 0.0

    def test_table_size_required(self, stream_capture):
        with pytest.raises(SystemExit):
            main(["offload", stream_capture["npz"]])

    def test_zero_capacity_covers_nothing(self, stream_capture, capsys):
        code = main(
            [
                "offload",
                stream_capture["npz"],
                "--table-size",
                "0",
                "--json",
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["offload"]["byte_coverage"] == 0.0
        assert summary["offload"]["installs"] == 0
        assert summary["offload"]["rejected"] > 0

    def test_workers_rejected(self, stream_capture, capsys):
        code = main(
            [
                "offload",
                stream_capture["npz"],
                "--table-size",
                "4",
                "--workers",
                "2",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--workers" in err


class TestFlowCsv:
    """stream --flow-csv-out and flow-record CSV as an input."""

    def test_export_then_replay_matches_slot_for_slot(
        self, stream_capture, tmp_path, capsys
    ):
        """A pcap run equals the replay of its own CSV export."""
        export = str(tmp_path / "flow_info.csv")
        code = main(
            [
                "stream",
                stream_capture["pcap"],
                "--quiet",
                "--json",
                "--flow-csv-out",
                export,
            ]
        )
        assert code == 0
        from_pcap = json.loads(capsys.readouterr().out)
        assert from_pcap["flow_csv_out"] == export
        assert from_pcap["flow_records_written"] > 0
        code = main(["stream", export, "--quiet", "--json"])
        assert code == 0
        from_csv = json.loads(capsys.readouterr().out)
        assert (
            from_csv["elephants_by_slot"]
            == from_pcap["elephants_by_slot"]
        )
        assert from_csv["elephants"] == from_pcap["elephants"]
        assert from_csv["num_slots"] == from_pcap["num_slots"]
        assert from_csv["spec"]["source"]["kind"] == "flow-csv"
        assert from_pcap["spec"]["source"]["kind"] == "pcap"

    def test_flow_csv_feeds_offload(
        self, stream_capture, tmp_path, capsys
    ):
        export = str(tmp_path / "flow_info.csv")
        code = main(
            [
                "stream",
                stream_capture["pcap"],
                "--quiet",
                "--flow-csv-out",
                export,
            ]
        )
        assert code == 0
        capsys.readouterr()
        code = main(
            ["offload", export, "--table-size", "8", "--json"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["spec"]["source"]["kind"] == "flow-csv"
        assert summary["offload"]["byte_coverage"] > 0.0

    def test_parallel_stream_writes_flow_csv(
        self, stream_capture, tmp_path, capsys
    ):
        export = str(tmp_path / "flow_info.csv")
        code = main(
            [
                "stream",
                stream_capture["pcap"],
                "--quiet",
                "--json",
                "--workers",
                "2",
                "--flow-csv-out",
                export,
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["flow_records_written"] > 0
        code = main(["stream", export, "--quiet", "--json"])
        assert code == 0
        replay = json.loads(capsys.readouterr().out)
        assert (
            replay["elephants_by_slot"] == summary["elephants_by_slot"]
        )


class TestResultEnvelope:
    """One versioned result shape across four commands.

    stream, merge, query, and offload all serialise through
    ``result_envelope``; on the same capture their elephant answers
    must agree field-for-field, not merely resemble each other.
    """

    def test_four_commands_agree(
        self, stream_capture, tmp_path, capsys
    ):
        from distributed.service_harness import ServiceHandle

        from repro.distributed import CollectorService

        path = str(tmp_path / "mon.npz")
        with ServiceHandle(CollectorService()) as handle:
            host, port = handle.address
            address = f"{host}:{port}"
            code = main(
                [
                    "stream",
                    stream_capture["pcap"],
                    "--quiet",
                    "--json",
                    "--summary-out",
                    path,
                    "--connect",
                    address,
                    "--monitor",
                    "mon-a",
                ]
            )
            assert code == 0
            streamed = json.loads(capsys.readouterr().out)
            assert main(["query", address, "--json"]) == 0
            queried = json.loads(capsys.readouterr().out)
        assert main(["merge", path, "--json"]) == 0
        merged = json.loads(capsys.readouterr().out)
        code = main(
            [
                "offload",
                stream_capture["pcap"],
                "--table-size",
                "8",
                "--json",
            ]
        )
        assert code == 0
        offloaded = json.loads(capsys.readouterr().out)
        reports = [streamed, queried, merged, offloaded]
        for report in reports:
            assert report["schema"] == "repro.result/1"
            assert isinstance(report["spec"], dict)
            series = report["series"]
            assert series["num_slots"] == 4
            assert len(series["elephants_per_slot"]) == 4
        assert [r["command"] for r in reports] == [
            "stream",
            "query",
            "merge",
            "offload",
        ]
        for other in reports[1:]:
            assert other["elephants"] == streamed["elephants"]
            assert (
                other["elephants_by_slot"]
                == streamed["elephants_by_slot"]
            )
            assert other["series"] == streamed["series"]
        assert streamed["elephants"]  # the agreement is non-vacuous

    def test_four_commands_flag_the_same_below_table_slots(
        self, stream_capture, tmp_path, capsys
    ):
        """A two-entry table over six similar flows leaves most bytes
        in the residual: the cut falls below the table. Each command
        lists those slots in ``series.cut_below_table``, the same ones."""
        from distributed.service_harness import ServiceHandle

        from repro.distributed import CollectorService

        table = ["--backend", "space-saving", "--capacity", "2"]
        path = str(tmp_path / "mon.npz")
        with ServiceHandle(CollectorService()) as handle:
            host, port = handle.address
            address = f"{host}:{port}"
            argv = ["stream", stream_capture["pcap"], "--quiet", "--json"]
            code = main(
                [*argv, *table, "--summary-out", path, "--connect", address]
            )
            assert code == 0
            streamed = json.loads(capsys.readouterr().out)
            assert main(["query", address, "--json"]) == 0
            queried = json.loads(capsys.readouterr().out)
        assert main(["merge", path, "--json"]) == 0
        merged = json.loads(capsys.readouterr().out)
        offload = ["offload", stream_capture["pcap"], "--table-size", "8"]
        assert main([*offload, *table, "--json"]) == 0
        offloaded = json.loads(capsys.readouterr().out)
        below = streamed["series"]["cut_below_table"]
        assert below and below == sorted(set(below))
        for other in (queried, merged, offloaded):
            assert other["series"] == streamed["series"]
            assert other["elephants_by_slot"] == streamed["elephants_by_slot"]
