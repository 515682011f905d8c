"""Command-line interface: ``python -m repro <command>``.

The commands — ``simulate``, ``classify``, ``stream``, ``merge``,
``collect``, ``query``, ``offload``, ``figures`` — are the modules of
this package; each one's docstring says what it does.

Packet inputs are named by a
:class:`~repro.pipeline.spec.SourceSpec`: a pcap capture, a
``timestamp,destination,wire_bytes`` packet csv, or a floodns-shaped
``flow_info.csv`` flow-record export — any command that takes a
capture takes all three. ``stream --flow-csv-out`` writes that same
flow-record shape back out, so a run can be replayed (or handed to
another tool) without the original capture. Every ``--json`` summary
embeds the shared result envelope
(:func:`~repro.distributed.collector.result_envelope`), so
``stream``/``merge``/``query``/``offload`` agree on one schema.

The CLI is a thin veneer over the library; anything it does is three
lines of Python away.

**Layout.** This module is :func:`main` and the command table. Each
command is a module of this package with two functions,
``add_arguments(parser)`` and ``run(args)``, and is imported only when
``argv`` names it: what a run pays at start-up is what its command
uses (``repro query`` loads no numpy, ``repro stream`` no asyncio),
not the sum of all eight. The table is static — each name and help
line spelled here — because ``repro --help`` lists every command and
must import none of them to do it. What the classifying commands share
(option builders, input opening, printing) is :mod:`repro.cli.common`;
``repro.cli.add_pipeline_args`` resolves there.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Sequence

from repro._lazy import attach
from repro.errors import ReproError

#: command (the module of this package that runs it) → the line
#: ``repro --help`` lists it with
COMMANDS = {
    "simulate": "generate a synthetic link workload",
    "classify": "classify a saved rate matrix",
    "stream": "classify a capture slot by slot (streaming)",
    "merge": "merge monitor summaries at a collector, classify",
    "collect": "run the collector as a live network service",
    "query": "query a running collector service",
    "offload": "evaluate a rule-table offload against the verdicts",
    "figures": "run the paper experiment, render Figure 1",
}

__getattr__, __dir__, __all__ = attach(
    __name__, {"common": ("add_pipeline_args",)}
)
__all__ += ["main"]


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Domain failures (unreadable inputs, bad backend parameters, ...)
    print one ``error:`` line to stderr and exit 2 — a monitor wrapper
    should never see a traceback for a malformed capture.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Elephant-flow classification (IMC 2002 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    # the top-level parser takes no option but -h, so the command, if
    # there is one, is the first argument that names one; only its
    # module is imported and only its parser gets its options
    named = next((arg for arg in argv if arg in COMMANDS), None)
    command = None
    for name, help_line in COMMANDS.items():
        subparser = commands.add_parser(name, help=help_line)
        if name == named:
            command = importlib.import_module(f"{__name__}.{name}")
            command.add_arguments(subparser)
    args = parser.parse_args(argv)
    try:
        return command.run(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
