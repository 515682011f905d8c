"""The benchmark's one command.

``python3 benchmarks/perf/run.py`` runs every workload and prints each
metric by name with its unit; ``--workload NAME`` runs one and ends its
standard output with the one-line JSON result the root
``BENCHMARK.json`` contract describes. ``--trace 1`` makes the run a
*traced* one: per-layer spans and counts instead of end-to-end metrics.
``--out PATH`` writes the invocation's record and appends it to
``reports/TRAJECTORY.jsonl``. See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# stdlib-only, importable before ``src`` is on the path
from perfbench.harness import (
    FULL,
    PERF_DIR,
    REPO_ROOT,
    SRC_DIR,
    WORK_ROOT,
    summarize,
    supervise,
)

TRAJECTORY = PERF_DIR / "reports" / "TRAJECTORY.jsonl"


def load_contract() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def workloads() -> dict:
    """Name → workload, in ``BENCHMARK.json`` order."""
    from perfbench.collector import CollectorLive
    from perfbench.packets import (
        Fleet2w,
        MemSampledBloom,
        MemSketchChurn,
        PcapExact,
    )

    made = (
        PcapExact(),
        MemSketchChurn(),
        MemSampledBloom(),
        Fleet2w(),
        CollectorLive(),
    )
    return {workload.name: workload for workload in made}


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, sizes
) -> dict:
    """Set up, run (traced or not), check, clean up; one outcome."""
    import numpy as np

    workload = workloads()[name]
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    setups = []

    def set_up():
        started = time.perf_counter()
        made = workload.setup(np.random.default_rng(seed), sizes, workdir)
        setups.append(time.perf_counter() - started)
        return made

    try:
        # half of the set-ups before the measurement and half after it
        # (the same files again), so that a slow few seconds of the
        # box cannot cover them all; setup_s is the fastest, as every
        # timing of a run is
        before = (sizes.setups + 1) // 2
        for _ in range(before):
            made = set_up()
        outcome = {
            "workload": name,
            "metrics": {},
            "samples": {},
            "stages": {},
            "counts": {},
        }
        if trace:
            stages, counts, checks = workload.trace(made, seconds, sizes)
            outcome["stages"] = stages
            outcome["counts"] = counts
        else:
            metrics, samples, checks = workload.measure(made, seconds, sizes)
            outcome["metrics"] = metrics
            outcome["samples"] = samples
            for _ in range(sizes.setups - before):
                set_up()
            metrics["setup_s"] = min(setups)
        outcome["setup_s"] = summarize(setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    outcome["attempted"] = checks.attempted
    outcome["failed"] = checks.failed
    outcome["failures"] = checks.failures
    return outcome


def layer_values(outcome: dict) -> dict:
    """Spans flattened to ``<span>.seconds`` etc., beside the counts."""
    values = dict(outcome["counts"])
    for span, stage in outcome["stages"].items():
        for field, value in stage.items():
            values[f"{span}.{field}"] = value
    return values


def contract_result(outcome: dict, contract: dict, trace: bool) -> dict:
    """The result object of one run, in ``BENCHMARK.json``'s names.

    A layer the workload never enters reports 0: that is the
    prediction "no change" made checkable.
    """
    if trace:
        values = layer_values(outcome)
        declared = contract["per_layer"]
    else:
        values = outcome["metrics"]
        declared = contract["end_to_end"]
    return {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            metric["name"]: {
                "value": values.get(metric["name"], 0.0),
                "unit": metric["unit"],
            }
            for metric in declared
        },
    }


def print_outcome(outcome: dict, result: dict) -> None:
    print(f"== {outcome['workload']}")
    for name, metric in result["metrics"].items():
        sample = outcome["samples"].get(name)
        spread = (
            f"  (n={sample['n']} min={sample['min']:.6g} "
            f"max={sample['max']:.6g})"
            if sample
            else ""
        )
        print(f"{name:38s} {metric['value']:.6g} {metric['unit']}{spread}")
    share = outcome["failed"] / max(1, outcome["attempted"])
    print(
        f"{'failed_share':38s} {share:.6g} "
        f"({outcome['failed']} of {outcome['attempted']} checks)"
    )
    for failure in outcome["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build_record(outcomes: list[dict], args, sizes) -> dict:
    import numpy as np

    record = {
        "bench": "perf",
        "git_sha": git_sha(),
        "seed": args.seed,
        "seconds": args.seconds,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sizes": dataclasses.asdict(sizes),
        "workloads": {},
    }
    for outcome in outcomes:
        entry = record["workloads"].setdefault(outcome["workload"], {})
        entry.setdefault("setup_s", outcome["setup_s"])
        if outcome["stages"]:
            entry["stages"] = outcome["stages"]
            entry["counts"] = outcome["counts"]
        else:
            entry["end_to_end"] = {
                name: {"value": value, **outcome["samples"].get(name, {})}
                for name, value in outcome["metrics"].items()
            }
        entry["failed_share"] = max(
            entry.get("failed_share", 0.0),
            outcome["failed"] / max(1, outcome["attempted"]),
        )
    return record


def main(argv: list[str] | None = None, sizes=FULL) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--out", default=None, metavar="PATH")
    args = parser.parse_args(argv)

    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(
            f"error: no program to measure: {SRC_DIR / 'repro'} is missing",
            file=sys.stderr,
        )
        return 2
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    known = [workload["name"] for workload in contract["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; one of {known}")
    names = known if args.workload is None else [args.workload]

    outcomes = []
    failed = 0
    result = {}
    # without --workload, --trace adds the traced run to the plain one
    kinds = [bool(args.trace)]
    if args.workload is None and args.trace:
        kinds = [False, True]
    for name in names:
        for trace in kinds:
            outcome = run_workload(name, args.seed, args.seconds, trace, sizes)
            result = contract_result(outcome, contract, trace)
            print_outcome(outcome, result)
            outcomes.append(outcome)
            failed += outcome["failed"]
    if args.out is not None:
        record = build_record(outcomes, args, sizes)
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
        TRAJECTORY.parent.mkdir(exist_ok=True)
        with open(TRAJECTORY, "a") as stream:
            stream.write(json.dumps(record) + "\n")
    if args.workload is not None:
        print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(supervise(main))
