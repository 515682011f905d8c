"""``repro offload`` — replay a capture's per-slot verdicts against a
bounded rule table of size F (the flow-table offload evaluation):
occupancy, byte coverage, and rule churn per slot."""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.offload import (
    DEFAULT_COOLDOWN_SLOTS,
    EVICTION_POLICIES,
    FlowTableSimulator,
    OffloadSpec,
)
from repro.analysis.report import format_table
from repro.cli.common import (
    add_capture_args,
    add_output_options,
    engine_config,
    scheme_and_feature,
    stream_source,
)
from repro.distributed.collector import elephant_entries, result_envelope
from repro.errors import ReproError
from repro.pipeline.engine import StreamingPipeline
from repro.pipeline.spec import PipelineSpec


def add_arguments(command: argparse.ArgumentParser) -> None:
    add_capture_args(command)
    command.add_argument(
        "--table-size",
        type=int,
        required=True,
        metavar="F",
        help="rule-table capacity F (0 is the install-nothing "
        "control case)",
    )
    command.add_argument(
        "--eviction",
        choices=EVICTION_POLICIES,
        default="lru-idle",
        help="victim policy when an elephant wants a rule "
        "and the table is full",
    )
    command.add_argument(
        "--cooldown",
        type=int,
        default=DEFAULT_COOLDOWN_SLOTS,
        metavar="SLOTS",
        help="slots a rule survives without an elephant refresh",
    )
    add_output_options(command, quiet="suppress the per-slot table lines")


def run(args: argparse.Namespace) -> int:
    """``repro offload``: verdicts → rule-table dynamics.

    Classifies the input exactly like ``repro stream`` (same spec,
    same resolver flags) and replays every slot's verdict against a
    bounded rule table, reporting occupancy, byte coverage, and churn.
    """
    scheme, feature = scheme_and_feature(args)
    spec = PipelineSpec.from_args(args)
    if spec.workers > 1:
        raise ReproError(
            "offload evaluation replays one verdict stream; drop "
            "--workers (the table itself is the bottleneck under "
            "study, not ingestion)"
        )
    offload_spec = OffloadSpec(
        table_size=args.table_size,
        eviction=args.eviction,
        cooldown=args.cooldown,
    )
    backend = spec.build_backend()
    source, aggregator, spec = stream_source(args, spec, backend)
    simulator = FlowTableSimulator(offload_spec, source.slot_seconds)
    pipeline = StreamingPipeline(
        source,
        scheme=scheme,
        feature=feature,
        config=engine_config(args),
        backend=(backend if aggregator is None else None),
        sampling=spec.sampling,
    )
    slots = 0
    slot_entries: list[list[dict[str, object]]] = []
    for event in pipeline.events():
        slots += 1
        record = simulator.observe(event.frame, event.verdict)
        if args.json:
            slot_entries.append(elephant_entries(event.frame, event.verdict))
        if args.quiet or args.json:
            continue
        print(
            f"slot {record.slot:4d}  rules={record.occupancy:4d}  "
            f"coverage={record.coverage:.2f}  "
            f"installs={record.installs:3d}  "
            f"evicted={record.evictions:3d}  "
            f"expired={record.expirations:3d}  "
            f"rejected={record.rejected:3d}"
        )
    if slots == 0:
        print("no slots in input", file=sys.stderr)
        return 1
    report = simulator.report()
    if args.json:
        summary = result_envelope("offload", spec.describe(), slot_entries)
        summary["offload"] = report.as_dict()
        print(json.dumps(summary, indent=2))
        return 0
    print(
        format_table(
            ["metric", "value"],
            [
                ["run", pipeline.label],
                ["table size (F)", offload_spec.table_size],
                ["eviction", offload_spec.eviction],
                ["cooldown (slots)", offload_spec.cooldown],
                ["num slots", report.num_slots],
                ["mean occupancy", report.mean_occupancy],
                ["byte coverage", f"{report.byte_coverage:.3f}"],
                ["mean churn/slot", report.mean_churn],
                ["installs", report.installs],
                ["evictions", report.evictions],
                ["expirations", report.expirations],
                ["rejected installs", report.rejected],
            ],
            title="offload summary",
        )
    )
    return 0
