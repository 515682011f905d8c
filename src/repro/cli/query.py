"""``repro query`` — ask a running ``collect`` daemon for its merged
state (current elephants, residual fraction, skew, monitor liveness).

A poll runs no pipeline, so this module imports none: the blocking
client, the table formatter, the standard library.
"""

from __future__ import annotations

import argparse
import json

from repro.analysis.report import format_table
from repro.distributed.client import parse_address, query_service
from repro.errors import ReproError


def add_arguments(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "address",
        metavar="HOST:PORT",
        help="where `repro collect --listen` is serving",
    )
    command.add_argument(
        "--link",
        default=None,
        help="link to report on (optional with a single link)",
    )
    command.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        help="connection timeout in seconds",
    )
    command.add_argument(
        "--since-cell",
        type=int,
        default=None,
        metavar="CELL",
        help="list in elephants_by_slot only the slots sealed at or "
        "above this grid cell (the next_cell of your previous reply; "
        "the reply's since_cell is the cell its first listed slot "
        "covers); everything else still describes the whole link",
    )
    # spelled here, not through common.add_output_options: that module
    # imports the pipeline, and a poll must not pay for one
    command.add_argument(
        "--json", action="store_true", help="print the raw JSON report"
    )


def run(args: argparse.Namespace) -> int:
    try:
        report = query_service(
            parse_address(args.address),
            link=args.link,
            timeout=args.timeout,
            since_cell=args.since_cell,
        )
    except OSError as exc:
        raise ReproError(
            f"cannot reach collector at {args.address!r}: {exc}"
        ) from exc
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    monitors = report.get("monitors", {})
    connected = sum(
        1 for status in monitors.values() if status.get("connected")
    )
    rows = [
        ["link", report.get("link")],
        ["slot seconds", report.get("slot_seconds")],
        ["slots sealed", report.get("slots")],
        ["residual fraction", f"{report.get('residual_fraction', 0):.4f}"],
        ["monitors", f"{connected} connected / {len(monitors)} known"],
    ]
    skewed = {
        name: offset
        for name, offset in report.get("skew_estimate", {}).items()
        if offset
    }
    if skewed:
        rows.append(["clock skew (s)", skewed])
    print(format_table(["metric", "value"], rows, title="collector state"))
    elephants = report.get("elephants", [])
    if elephants:
        print(
            format_table(
                ["prefix", "rate (kb/s)"],
                [
                    [entry["prefix"], f"{entry['rate_bps'] / 1e3:.1f}"]
                    for entry in elephants
                ],
                title="current elephants",
            )
        )
    else:
        print("no elephants in the latest slot")
    return 0
