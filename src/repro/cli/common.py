"""What the commands that classify share: options, inputs, printing.

The option builders (classifier, pipeline, output flags), the path →
source/resolver step behind ``stream`` and ``offload``, matrix loading,
and the slot line and summary table ``stream`` and ``merge`` print.
Importing this module imports the pipeline; ``query``, which runs
none, keeps clear of it.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import TYPE_CHECKING

from repro.core.engine import EngineConfig, Feature, Scheme
from repro.errors import ReproError
from repro.flows.matrix import RateMatrix
from repro.pipeline.aggregator import (
    AggregatingSlotSource,
    StreamingAggregator,
)
from repro.pipeline.backends import ADMISSION_NAMES, BACKEND_NAMES
from repro.pipeline.sampling import SAMPLING_MODES
from repro.pipeline.sources import MatrixSlotSource, text_lines
from repro.pipeline.spec import SourceSpec
from repro.routing.lpm import FixedLengthResolver
from repro.routing.ribfile import read_rib

if TYPE_CHECKING:
    from repro.distributed.faults import FaultPlan
    from repro.pipeline.backends import AggregationBackend
    from repro.pipeline.sources import SlotSource
    from repro.pipeline.spec import PipelineSpec


def add_classifier_options(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--scheme",
        choices=("aest", "constant-load"),
        default="constant-load",
    )
    command.add_argument(
        "--feature",
        choices=("single", "latent-heat"),
        default="latent-heat",
    )
    command.add_argument(
        "--alpha",
        type=float,
        default=0.9,
        help="EWMA smoothing weight",
    )
    command.add_argument(
        "--beta",
        type=float,
        default=0.8,
        help="constant-load target share",
    )
    command.add_argument(
        "--window",
        type=int,
        default=12,
        help="latent-heat window in slots",
    )


def add_pipeline_args(parser: argparse.ArgumentParser) -> None:
    """Install the shared ingest-pipeline flags on ``parser``.

    The flags mirror :class:`~repro.pipeline.spec.PipelineSpec` field
    for field; parse them back with ``PipelineSpec.from_args(args)``,
    which also performs every cross-field validation. Embedders running
    their own argparse front-end get the exact CLI surface (and error
    messages) ``repro stream`` exposes.
    """
    parser.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="exact",
        help="aggregation backend: exact tracks every "
        "flow; sketch backends bound tracked state",
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=None,
        help="tracked-flow table size for sketch backends",
    )
    parser.add_argument(
        "--memory-budget",
        metavar="BYTES",
        default=None,
        help="size the sketch capacity from a byte budget "
        "(suffixes k/m/g), instead of --capacity; "
        "accounts for --shards/--workers",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition the flow table across N shard "
        "backends merged at slot close",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="fork N shard worker processes that this "
        "process reads and deals batches to (true "
        "multi-process ingestion; packet inputs only)",
    )
    parser.add_argument(
        "--ring-slots",
        type=int,
        default=None,
        help="shared-memory ring slots per worker: the "
        "batches in flight before reading blocks "
        "(backpressure bound)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="hash seed for sketch backends",
    )
    parser.add_argument(
        "--sample-rate",
        type=int,
        default=1,
        metavar="N",
        help="process 1 in N packets and invert the byte "
        "counts back to full-traffic estimates",
    )
    parser.add_argument(
        "--sample-mode",
        choices=SAMPLING_MODES,
        default="deterministic",
        help="how packets are selected: deterministic "
        "1-in-N, independent coin flips, or "
        "NetFlow-style sampled flow records",
    )
    parser.add_argument(
        "--sample-seed",
        type=int,
        default=0,
        help="sampling phase / RNG seed",
    )
    parser.add_argument(
        "--no-invert",
        action="store_true",
        help="report sampled bytes as observed, without "
        "the 1/p inversion (for debugging the raw "
        "thinned stream)",
    )
    parser.add_argument(
        "--admission",
        choices=ADMISSION_NAMES,
        default="none",
        help="candidate-admission pre-filter: bloom gates "
        "sketch entry on a counting-Bloom byte "
        "threshold (sketch backends only)",
    )
    parser.add_argument(
        "--admission-threshold",
        type=float,
        default=None,
        metavar="BYTES",
        help="bytes a flow must accumulate in the Bloom "
        "pre-filter before it may enter the table "
        "(with --admission bloom)",
    )


def add_output_options(
    command: argparse.ArgumentParser,
    quiet: str | None = "suppress the per-slot monitor lines",
    json_help: str | None = "print a machine-readable JSON summary",
) -> None:
    """The shared ``--quiet``/``--json`` output flags.

    ``None`` for either help string omits that flag; every command
    that classifies installs its output surface through here so the
    flags stay spelled, defaulted, and documented identically.
    """
    if quiet is not None:
        command.add_argument("--quiet", action="store_true", help=quiet)
    if json_help is not None:
        command.add_argument("--json", action="store_true", help=json_help)


def scheme_and_feature(args: argparse.Namespace) -> tuple[Scheme, Feature]:
    scheme = Scheme.AEST if args.scheme == "aest" else Scheme.CONSTANT_LOAD
    feature = (
        Feature.SINGLE if args.feature == "single" else Feature.LATENT_HEAT
    )
    return scheme, feature


def engine_config(args: argparse.Namespace) -> EngineConfig:
    return EngineConfig(alpha=args.alpha, beta=args.beta, window=args.window)


def add_capture_args(command: argparse.ArgumentParser) -> None:
    """What ``stream`` and ``offload`` both open with: the input, the
    classifier, routing and pipeline flags :func:`stream_source` reads."""
    command.add_argument(
        "input",
        help=".pcap capture, flow-record .csv, or a "
        ".npz/.csv rate matrix to replay",
    )
    add_classifier_options(command)
    command.add_argument(
        "--slot-seconds",
        type=float,
        default=60.0,
        help="slot length for packet inputs (seconds)",
    )
    command.add_argument(
        "--rib",
        metavar="FILE",
        help="prefix file (one CIDR per line) used as "
        "LPM flow keys for packet inputs",
    )
    command.add_argument(
        "--prefix-length",
        type=int,
        default=16,
        help="fixed-length flow granularity when no --rib is given",
    )
    add_pipeline_args(command)


def env_faults() -> FaultPlan | None:
    """The ``REPRO_FAULT_PLAN`` plan, or ``None``; imported only if set."""
    if not os.environ.get("REPRO_FAULT_PLAN"):
        return None
    from repro.distributed.faults import FaultPlan

    plan = FaultPlan.from_env()
    return None if plan.is_empty else plan


def load_matrix(path: str) -> RateMatrix:
    """Load a matrix artefact, folding load failures into ReproError."""
    try:
        if path.endswith(".npz"):
            return RateMatrix.load_npz(path)
        return RateMatrix.load_csv(path)
    except ReproError:
        raise
    except (OSError, ValueError, KeyError) as exc:
        raise ReproError(f"cannot load matrix {path!r}: {exc}") from exc


def packet_input(args: argparse.Namespace):
    """The input's :class:`SourceSpec` + resolver behind ``args.input``.

    Returns ``None`` when the input is a rate-matrix artefact (slot
    altitude — there are no packets to process). Otherwise the path is
    classified into a spec (pcap capture, packet csv, or flow-record
    csv — a ``flow_info.csv`` export is accepted anywhere a pcap is)
    and paired with the flow-key resolver the routing flags describe.
    """
    path = args.input
    if path.endswith(".npz"):
        return None
    if path.endswith(".csv"):
        header = next(text_lines(path, "capture"), "")
        if header.startswith("prefix"):
            return None
    else:
        # fail on an unreadable capture here, not mid-stream
        try:
            with open(path, "rb"):
                pass
        except OSError as exc:
            raise ReproError(f"cannot read capture {path!r}: {exc}") from exc
    source = SourceSpec.from_path(path)
    if args.rib:
        resolver = read_rib(args.rib)
    else:
        resolver = FixedLengthResolver(args.prefix_length)
    return source, resolver


def stream_source(
    args: argparse.Namespace,
    spec: PipelineSpec,
    backend: AggregationBackend | None,
) -> tuple[SlotSource, StreamingAggregator | None, PipelineSpec]:
    """Build the slot source (and aggregator, for packet inputs).

    For packet inputs the input's :class:`SourceSpec` is attached to
    the pipeline spec (the returned spec carries it, so ``describe()``
    names the input) and opened through ``spec.open_source()`` — the
    backend bounds the aggregator's flow table and the spec's sampling
    front-end thins the packet stream. For matrix replays the caller
    interposes the backend at the slot level, and sampling is rejected
    (a matrix has no packets to sample).
    """
    packets = packet_input(args)
    if packets is None:
        if not spec.sampling.is_null:
            raise ReproError(
                "--sample-rate/--sample-mode apply to packet inputs; "
                "a rate-matrix replay has no packets to sample"
            )
        return MatrixSlotSource(load_matrix(args.input)), None, spec
    source_spec, resolver = packets
    spec = spec.replace(source=source_spec)
    aggregator = StreamingAggregator(
        resolver,
        slot_seconds=args.slot_seconds,
        backend=backend,
        sample_rate=spec.sampling.applied_rate,
    )
    return (
        AggregatingSlotSource(spec.open_source(), aggregator),
        aggregator,
        spec,
    )


def print_slot_line(event) -> None:
    """One monitor line per classified slot (stream and merge)."""
    total = float(event.frame.rates.sum())
    elephant = float(
        event.frame.rates[
            event.verdict.elephant_mask[: event.frame.num_flows]
        ].sum()
    )
    fraction = elephant / total if total > 0 else 0.0
    print(
        f"slot {event.frame.slot:4d}  "
        f"t={event.frame.start:12.1f}  "
        f"flows={event.frame.num_flows:5d}  "
        f"threshold={event.verdict.thresholds.smoothed / 1e3:9.1f} "
        f"kb/s  elephants={event.verdict.num_elephants:4d}  "
        f"fraction={fraction:.2f}"
    )


def print_summary(
    summary: dict[str, object], as_json: bool, title: str
) -> None:
    if as_json:
        print(json.dumps(summary, indent=2))
        return
    from repro.analysis.report import format_table

    rows = [[key, value] for key, value in summary.items()]
    print(format_table(["metric", "value"], rows, title=title))
