"""``repro simulate`` — generate a synthetic link workload and save the
rate matrix to ``.npz``."""

from __future__ import annotations

import argparse

from repro.traffic.scenarios import east_coast_link, west_coast_link


def add_arguments(command: argparse.ArgumentParser) -> None:
    command.add_argument("output", help="output .npz path for the matrix")
    command.add_argument(
        "--link",
        choices=("west", "east"),
        default="west",
        help="which paper link profile",
    )
    command.add_argument(
        "--scale",
        type=float,
        default=0.25,
        help="workload scale in (0, 1]",
    )
    command.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the scenario seed",
    )


def run(args: argparse.Namespace) -> int:
    kwargs = {} if args.seed is None else {"seed": args.seed}
    if args.link == "west":
        workload = west_coast_link(scale=args.scale, **kwargs)
    else:
        workload = east_coast_link(scale=args.scale, **kwargs)
    workload.matrix.save_npz(args.output)
    print(
        f"wrote {workload.matrix.num_flows} flows x "
        f"{workload.matrix.num_slots} slots to {args.output} "
        f"(mean utilisation {workload.mean_utilization():.0%})"
    )
    return 0
