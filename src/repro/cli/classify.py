"""``repro classify`` — load a rate matrix, run a scheme/feature
combination, print the summary table (or JSON with ``--json``)."""

from __future__ import annotations

import argparse
import json

from repro.analysis.elephants import ElephantSeries
from repro.analysis.holding import HoldingTimeAnalysis
from repro.analysis.report import format_table
from repro.cli.common import (
    add_classifier_options,
    add_output_options,
    engine_config,
    load_matrix,
    scheme_and_feature,
)
from repro.core.engine import ClassificationEngine


def add_arguments(command: argparse.ArgumentParser) -> None:
    command.add_argument("matrix", help=".npz file from `repro simulate`")
    add_classifier_options(command)
    add_output_options(command, quiet=None)


def run(args: argparse.Namespace) -> int:
    matrix = load_matrix(args.matrix)
    scheme, feature = scheme_and_feature(args)
    engine = ClassificationEngine(matrix, engine_config(args))
    result = engine.run(scheme, feature)
    series = ElephantSeries.from_result(result)
    analysis = HoldingTimeAnalysis.from_result(result, busy_hours=None)
    if args.json:
        print(
            json.dumps(
                {
                    "run": result.label,
                    "num_flows": matrix.num_flows,
                    "num_slots": matrix.num_slots,
                    "mean_elephants_per_slot": series.mean_count,
                    "mean_traffic_fraction": series.mean_fraction,
                    "mean_holding_minutes": analysis.mean_minutes,
                    "single_interval_flows": (
                        analysis.single_interval_flows
                    ),
                    "threshold_fallbacks": len(
                        result.thresholds.fallback_slots
                    ),
                },
                indent=2,
            )
        )
        return 0
    print(
        format_table(
            ["metric", "value"],
            [
                ["run", result.label],
                [
                    "flows x slots",
                    f"{matrix.num_flows} x {matrix.num_slots}",
                ],
                ["mean elephants/slot", round(series.mean_count)],
                ["mean traffic fraction", f"{series.mean_fraction:.2f}"],
                ["mean holding (min)", f"{analysis.mean_minutes:.0f}"],
                ["one-slot flows", analysis.single_interval_flows],
                [
                    "threshold fallbacks",
                    len(result.thresholds.fallback_slots),
                ],
            ],
            title="classification summary",
        )
    )
    return 0
