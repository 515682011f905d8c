"""``repro merge`` — merge per-monitor summary files slot by slot at a
collector and classify the stitched link."""

from __future__ import annotations

import argparse
import sys

from repro.cli.common import (
    add_classifier_options,
    add_output_options,
    engine_config,
    print_slot_line,
    print_summary,
    scheme_and_feature,
)
from repro.distributed.collector import (
    Collector,
    elephant_entries,
    result_envelope,
)
from repro.distributed.summary import load_summaries


def add_arguments(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "summaries",
        nargs="+",
        help=".npz summary files from "
        "`repro stream --summary-out`, one per monitor",
    )
    add_classifier_options(command)
    command.add_argument(
        "--k",
        type=int,
        default=None,
        help="re-truncate the merged table to K entries "
        "per slot (untracked mass stays in the residual)",
    )
    command.add_argument(
        "--fill-gaps",
        action="store_true",
        help="emit empty slots for intervals no monitor "
        "covered (what the live collector does)",
    )
    add_output_options(command)


def run(args: argparse.Namespace) -> int:
    scheme, feature = scheme_and_feature(args)
    runs = [load_summaries(path) for path in args.summaries]
    collector = Collector(
        runs,
        k=args.k,
        scheme=scheme,
        feature=feature,
        config=engine_config(args),
        fill_gaps=args.fill_gaps,
    )
    slots = 0
    slot_entries: list[list[dict[str, object]]] = []
    for event in collector.events():
        slots += 1
        slot_entries.append(elephant_entries(event.frame, event.verdict))
        if args.quiet or args.json:
            continue
        print_slot_line(event)
    if slots == 0:
        print("no slots in summaries", file=sys.stderr)
        return 1
    series = collector.series()
    pipeline = collector.pipeline()
    num_flows = (
        pipeline.classifier.num_flows
        if pipeline.classifier is not None
        else 0
    )
    if num_flows > 0:
        num_flows -= 1  # merged frames always carry a residual row
    summary: dict[str, object] = {
        "run": pipeline.label,
        "monitors": collector.num_monitors,
        "num_slots": slots,
        "num_flows": num_flows,
        "k": args.k,
        "merged_bytes": sum(s.total_bytes for s in collector.merged),
        "mean_elephants_per_slot": series.mean_count,
        "mean_traffic_fraction": series.mean_fraction,
        "mean_residual_fraction": series.mean_residual_fraction,
    }
    skewed = {
        str(index): offset
        for index, offset in collector.skew_estimate.items()
        if offset
    }
    if skewed:
        summary["clock_skew_seconds"] = skewed
    if args.json:
        # the same envelope the live service serialises with, so
        # `repro query --json` and `repro merge --json` agree exactly
        summary = {
            **result_envelope(
                "merge",
                {
                    "monitors": collector.num_monitors,
                    "k": args.k,
                    "fill_gaps": args.fill_gaps,
                    "scheme": args.scheme,
                    "feature": args.feature,
                },
                slot_entries,
            ),
            **summary,
        }
    print_summary(summary, args.json, "merge summary")
    return 0
