"""Smoke test of the benchmark itself, at a tiny fixed size.

Collected by the tier-1 suite: every workload and its traced run must
produce every metric ``BENCHMARK.json`` names, the deterministic ones
must repeat for a seed and move with it, span self times must add up,
and a corrupted reference must turn into failed checks and a non-zero
exit. Nothing here asserts on a time.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from perfbench import inputs
from perfbench.harness import Sizes

TINY = Sizes(
    pcap_packets=20_000,
    pcap_flows=400,
    pcap_slots=4,
    rib_routes=2_000,
    mem_packets=40_000,
    mem_flows=1_000,
    mem_slots=4,
    mem_capacity=64,
    churn_passes=2,
    sample_rate=5,
    sampled_passes=2,
    fleet_packets=20_000,
    fleet_flows=1_000,
    fleet_slots=4,
    fleet_capacity=128,
    ingest_cells=6,
    mixed_cells=4,
    summary_entries=64,
    summary_elephants=8,
    ack_probe_cells=4,
    setups=1,
    min_reps=1,
)

CONTRACT = run.load_contract()
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]
DETERMINISTIC = ("elephant_recall", "elephant_precision", "tracked_fraction")


@pytest.fixture(scope="module")
def measured():
    """Each workload once, untraced, at seed 1."""
    return {
        name: run.run_workload(name, 1, 0.0, False, TINY)
        for name in WORKLOADS
    }


@pytest.fixture(scope="module")
def traced():
    """Each workload's traced run at seed 1, with the wall it took."""
    outcomes = {}
    for name in WORKLOADS:
        started = time.perf_counter()
        outcome = run.run_workload(name, 1, 0.0, True, TINY)
        outcome["wall"] = time.perf_counter() - started
        outcomes[name] = outcome
    return outcomes


def test_contract_names_what_the_benchmark_runs():
    assert WORKLOADS == list(run.workloads())
    assert CONTRACT["paths"] == ["benchmarks/perf"]
    assert "setup_s" in {m["name"] for m in CONTRACT["end_to_end"]}


@pytest.mark.parametrize("name", WORKLOADS)
def test_end_to_end_metrics_present_and_correct(measured, name):
    outcome = measured[name]
    assert outcome["failures"] == []
    assert outcome["attempted"] >= 1
    result = run.contract_result(outcome, CONTRACT, trace=False)
    assert result["correct"] is True
    assert set(result["metrics"]) == {
        metric["name"] for metric in CONTRACT["end_to_end"]
    }
    for metric_name, metric in result["metrics"].items():
        assert metric["unit"], metric_name
        assert math.isfinite(metric["value"]), metric_name
        assert metric["value"] > 0, metric_name


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_reports_every_layer_metric(traced, name):
    outcome = traced[name]
    assert outcome["failures"] == []
    result = run.contract_result(outcome, CONTRACT, trace=True)
    assert set(result["metrics"]) == {
        metric["name"] for metric in CONTRACT["per_layer"]
    }
    for metric_name, metric in result["metrics"].items():
        assert metric["unit"], metric_name
        assert math.isfinite(metric["value"]), metric_name
    seconds = [stage["seconds"] for stage in outcome["stages"].values()]
    assert seconds and min(seconds) >= 0.0
    # self times: the spans of a run cannot outlast the run
    assert sum(seconds) <= outcome["wall"]


def test_every_layer_metric_is_fed_by_some_workload(traced):
    """A name in BENCHMARK.json no workload produces is a typo."""
    produced = set()
    for outcome in traced.values():
        produced.update(
            name
            for name, value in run.layer_values(outcome).items()
            if value
        )
    declared = {metric["name"] for metric in CONTRACT["per_layer"]}
    # harness.trace_overhead_share may legitimately measure as 0
    assert declared - produced <= {"harness.trace_overhead_share"}


def test_deterministic_metrics_repeat_per_seed_and_move_with_it(measured):
    for name in ("mem-sketch-churn", "collector-live"):
        first = measured[name]["metrics"]
        again = run.run_workload(name, 1, 0.0, False, TINY)["metrics"]
        other = run.run_workload(name, 2, 0.0, False, TINY)["metrics"]
        for metric in DETERMINISTIC:
            assert first[metric] == again[metric], (name, metric)
        assert any(first[m] != other[m] for m in DETERMINISTIC), name


def test_corrupted_reference_fails_checks_and_exit_code(monkeypatch, capsys):
    real = inputs.reference_entries

    def corrupted(trace):
        by_slot = real(trace)
        by_slot[0] = by_slot[0][1:]
        return by_slot

    monkeypatch.setattr(inputs, "reference_entries", corrupted)
    code = run.main(["--workload", "pcap-exact", "--seconds", "0"], sizes=TINY)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    """BENCHMARK.json and ``paths`` alone: no result, non-zero exit."""
    shutil.copy(run.REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.PERF_DIR,
        tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    script = Path("benchmarks") / "perf" / "run.py"
    finished = subprocess.run(
        [sys.executable, str(script), "--workload", "pcap-exact"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert finished.returncode != 0
    assert finished.stdout == ""


#: ``supervise`` around a run that leaves a process behind: one that
#: ends ``argv[1]`` seconds after the run (as a resource tracker does,
#: once its pipe closes) or, without a delay, one that never would.
SUPERVISED_RUN = """
import os, subprocess, sys, time
from perfbench import harness
harness.LINGER_SECONDS = 0.2
def main():
    if sys.argv[1] == "never":
        subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"],
            start_new_session=True,
        )
        return 3
    ours, theirs = os.pipe()
    if os.fork() == 0:
        os.close(theirs)
        os.read(ours, 1)
        time.sleep(float(sys.argv[1]))
        os._exit(0)
    return 3
sys.exit(harness.supervise(main))
"""

#: A subreaper of its own, so that anything a supervised run leaves —
#: alive or as a zombie — lands here and is counted.
ORPHAN_COUNTER = """
import ctypes, os, subprocess, sys
ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)
for delay in ["never"] + [step * 0.00025 for step in range(40)]:
    run = subprocess.run([sys.executable, "-c", sys.argv[1], str(delay)])
    assert run.returncode == 3, run.returncode
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = open(f"/proc/{entry}/stat").read()
            except OSError:
                continue
            parent = int(stat.rpartition(")")[2].split()[1])
            assert parent != os.getpid(), (delay, stat)
"""


def test_supervise_leaves_no_process_behind():
    """Not the one that has to be killed, not the one that ends a
    moment after the run, whenever that moment is."""
    finished = subprocess.run(
        [sys.executable, "-c", ORPHAN_COUNTER, SUPERVISED_RUN],
        cwd=run.PERF_DIR,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert finished.returncode == 0, finished.stderr
