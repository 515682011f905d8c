"""``repro figures`` — run the full two-link paper experiment and render
Figure 1(a)–(c) as ASCII charts."""

from __future__ import annotations

import argparse

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import Figure1a, Figure1b, Figure1c
from repro.experiments.runner import run_paper_experiment


def add_arguments(command: argparse.ArgumentParser) -> None:
    command.add_argument("--scale", type=float, default=0.25)


def run(args: argparse.Namespace) -> int:
    run = run_paper_experiment(ExperimentConfig(scale=args.scale))
    print(Figure1a.from_run(run).render())
    print()
    print(Figure1b.from_run(run).render())
    print()
    print(Figure1c.from_run(run).render())
    return 0
