"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``simulate`` — generate a synthetic link workload and save the rate
  matrix to ``.npz`` (optionally also a pcap realisation).
- ``classify`` — load a rate matrix, run a scheme/feature combination,
  print the summary table (or JSON with ``--json``).
- ``stream``   — classify a capture slot by slot through the streaming
  pipeline: pcap in, verdicts out, memory bounded by O(flows × window)
  however long the capture is. Also replays ``.npz``/``.csv`` matrices,
  shards the flow table (``--shards``), forks true multi-process
  ingestion (``--workers``), exports per-slot summaries for a
  collector (``--summary-out``), and streams them live into a running
  collector daemon (``--connect``).
- ``merge``    — merge per-monitor summary files slot by slot at a
  collector and classify the stitched link.
- ``collect``  — run the collector as a live network service: listen
  for monitor connections, merge and classify slots as they arrive.
- ``query``    — ask a running ``collect`` daemon for its merged state
  (current elephants, residual fraction, skew, monitor liveness).
- ``offload``  — replay a capture's per-slot verdicts against a
  bounded rule table of size F (the flow-table offload evaluation):
  occupancy, byte coverage, and rule churn per slot.
- ``figures``  — run the full two-link paper experiment and render
  Figure 1(a)–(c) as ASCII charts.

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
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import sys
import zipfile
from typing import Sequence

from repro.analysis.elephants import ElephantSeries
from repro.analysis.holding import HoldingTimeAnalysis
from repro.analysis.offload import (
    DEFAULT_COOLDOWN_SLOTS,
    EVICTION_POLICIES,
    FlowTableSimulator,
    OffloadSpec,
)
from repro.analysis.report import format_table
from repro.core.engine import (
    ClassificationEngine,
    EngineConfig,
    Feature,
    Scheme,
)
from repro.distributed import (
    Collector,
    SlotSummary,
    elephant_entries,
    load_summaries,
    parallel_ingest,
    result_envelope,
    save_summaries,
)
from repro.distributed.faults import FaultPlan
from repro.distributed.service import (
    DEFAULT_LINK,
    DEFAULT_MAX_INFLIGHT,
    CollectorService,
    MonitorClient,
    parse_address,
    query_service,
)
from repro.errors import ReproError
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import Figure1a, Figure1b, Figure1c
from repro.experiments.runner import run_paper_experiment
from repro.flows.interchange import (
    FlowInfoRecord,
    slot_flow_records,
    write_flow_records,
)
from repro.flows.matrix import RateMatrix
from repro.pipeline.aggregator import (
    AggregatingSlotSource,
    StreamingAggregator,
)
from repro.pipeline.backends import (
    ADMISSION_NAMES,
    BACKEND_NAMES,
    AggregationBackend,
)
from repro.pipeline.engine import StreamingPipeline
from repro.pipeline.sampling import SAMPLING_MODES
from repro.pipeline.spec import PipelineSpec, SourceSpec
from repro.pipeline.sources import (
    MatrixSlotSource,
    SlotSource,
    text_lines,
)
from repro.routing.lpm import FixedLengthResolver
from repro.routing.ribfile import read_rib
from repro.traffic.scenarios import east_coast_link, west_coast_link


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Elephant-flow classification (IMC 2002 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser(
        "simulate",
        help="generate a synthetic link workload",
    )
    simulate.add_argument("output", help="output .npz path for the matrix")
    simulate.add_argument(
        "--link",
        choices=("west", "east"),
        default="west",
        help="which paper link profile",
    )
    simulate.add_argument(
        "--scale",
        type=float,
        default=0.25,
        help="workload scale in (0, 1]",
    )
    simulate.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the scenario seed",
    )

    classify = commands.add_parser(
        "classify",
        help="classify a saved rate matrix",
    )
    classify.add_argument("matrix", help=".npz file from `repro simulate`")
    _add_classifier_options(classify)
    _add_output_options(classify, quiet=None)

    stream = commands.add_parser(
        "stream",
        help="classify a capture slot by slot (streaming)",
    )
    stream.add_argument(
        "input",
        help=".pcap capture, flow-record .csv, or a "
        ".npz/.csv rate matrix to replay",
    )
    _add_classifier_options(stream)
    stream.add_argument(
        "--slot-seconds",
        type=float,
        default=60.0,
        help="slot length for packet inputs (seconds)",
    )
    stream.add_argument(
        "--rib",
        metavar="FILE",
        help="prefix file (one CIDR per line) used as "
        "LPM flow keys for packet inputs",
    )
    stream.add_argument(
        "--prefix-length",
        type=int,
        default=16,
        help="fixed-length flow granularity when no --rib is given",
    )
    add_pipeline_args(stream)
    stream.add_argument(
        "--summary-out",
        metavar="FILE",
        default=None,
        help="write per-slot summaries (.npz) for `repro merge`",
    )
    stream.add_argument(
        "--flow-csv-out",
        metavar="FILE",
        default=None,
        help="export one flow_info.csv record per (flow, slot); "
        "the export replays through `repro stream` (or any "
        "other command taking a capture) without the "
        "original input",
    )
    stream.add_argument(
        "--connect",
        metavar="HOST:PORT",
        default=None,
        help="stream per-slot summaries live into a "
        "running `repro collect --listen` daemon",
    )
    stream.add_argument(
        "--monitor",
        default=None,
        help="monitor name announced to the collector "
        "(default: the input path)",
    )
    stream.add_argument(
        "--link-name",
        default=DEFAULT_LINK,
        metavar="LINK",
        help="link this monitor taps, for --connect",
    )
    stream.add_argument(
        "--retry",
        type=int,
        default=0,
        metavar="N",
        help="with --connect: the monitor's redial budget; a "
        "transport failure is redialed up to N consecutive times, "
        "replaying unacked summaries (0 = fail fast)",
    )
    stream.add_argument(
        "--retry-backoff",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="base reconnect delay; doubles per failed "
        "attempt (capped), with jitter",
    )
    _add_output_options(stream)

    merge = commands.add_parser(
        "merge",
        help="merge monitor summaries at a collector, classify",
    )
    merge.add_argument(
        "summaries",
        nargs="+",
        help=".npz summary files from "
        "`repro stream --summary-out`, one per monitor",
    )
    _add_classifier_options(merge)
    merge.add_argument(
        "--k",
        type=int,
        default=None,
        help="re-truncate the merged table to K entries "
        "per slot (untracked mass stays in the residual)",
    )
    merge.add_argument(
        "--fill-gaps",
        action="store_true",
        help="emit empty slots for intervals no monitor "
        "covered (what the live collector does)",
    )
    _add_output_options(merge)

    collect = commands.add_parser(
        "collect",
        help="run the collector as a live network service",
    )
    collect.add_argument(
        "--listen",
        metavar="HOST:PORT",
        default="127.0.0.1:0",
        help="address to listen on (port 0 picks a free port)",
    )
    _add_classifier_options(collect)
    collect.add_argument(
        "--k",
        type=int,
        default=None,
        help="re-truncate each merged slot to K entries",
    )
    collect.add_argument(
        "--no-fill-gaps",
        action="store_true",
        help="do not synthesise empty slots for intervals "
        "no monitor covered",
    )
    collect.add_argument(
        "--max-inflight",
        type=int,
        default=DEFAULT_MAX_INFLIGHT,
        help="unacked summaries each monitor may keep on "
        "the wire (the backpressure window)",
    )
    collect.add_argument(
        "--once",
        type=int,
        default=None,
        metavar="RUNS",
        help="exit after N monitor runs completed cleanly "
        "and no monitor is connected",
    )
    collect.add_argument(
        "--linger",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="keep answering queries this long after the "
        "--once condition is met",
    )
    collect.add_argument(
        "--port-file",
        metavar="FILE",
        default=None,
        help="write the bound HOST:PORT here once listening "
        "(for scripts using port 0); written atomically, "
        "removed on exit",
    )
    collect.add_argument(
        "--state-dir",
        metavar="DIR",
        default=None,
        help="persist sealed slots to a write-ahead log under "
        "DIR and restore them on startup, so a restarted "
        "collector answers exactly as the one that died",
    )
    _add_output_options(
        collect,
        quiet="suppress the startup and shutdown lines",
        json_help=None,
    )

    query = commands.add_parser(
        "query",
        help="query a running collector service",
    )
    query.add_argument(
        "address",
        metavar="HOST:PORT",
        help="where `repro collect --listen` is serving",
    )
    query.add_argument(
        "--link",
        default=None,
        help="link to report on (optional with a single link)",
    )
    query.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        help="connection timeout in seconds",
    )
    query.add_argument(
        "--since-cell",
        type=int,
        default=None,
        metavar="CELL",
        help="list in elephants_by_slot only the slots sealed at or "
        "above this grid cell (the next_cell of your previous reply; "
        "the reply's since_cell is the cell its first listed slot "
        "covers); everything else still describes the whole link",
    )
    _add_output_options(
        query, quiet=None, json_help="print the raw JSON report"
    )

    offload = commands.add_parser(
        "offload",
        help="evaluate a rule-table offload against the verdicts",
    )
    offload.add_argument(
        "input",
        help=".pcap capture, flow-record .csv, or a "
        ".npz/.csv rate matrix to replay",
    )
    _add_classifier_options(offload)
    offload.add_argument(
        "--slot-seconds",
        type=float,
        default=60.0,
        help="slot length for packet inputs (seconds)",
    )
    offload.add_argument(
        "--rib",
        metavar="FILE",
        help="prefix file (one CIDR per line) used as "
        "LPM flow keys for packet inputs",
    )
    offload.add_argument(
        "--prefix-length",
        type=int,
        default=16,
        help="fixed-length flow granularity when no --rib is given",
    )
    add_pipeline_args(offload)
    offload.add_argument(
        "--table-size",
        type=int,
        required=True,
        metavar="F",
        help="rule-table capacity F (0 is the install-nothing "
        "control case)",
    )
    offload.add_argument(
        "--eviction",
        choices=EVICTION_POLICIES,
        default="lru-idle",
        help="victim policy when an elephant wants a rule "
        "and the table is full",
    )
    offload.add_argument(
        "--cooldown",
        type=int,
        default=DEFAULT_COOLDOWN_SLOTS,
        metavar="SLOTS",
        help="slots a rule survives without an elephant refresh",
    )
    _add_output_options(
        offload, quiet="suppress the per-slot table lines"
    )

    figures = commands.add_parser(
        "figures",
        help="run the paper experiment, render Figure 1",
    )
    figures.add_argument("--scale", type=float, default=0.25)
    return parser


def _add_classifier_options(command: argparse.ArgumentParser) -> None:
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
        help="fork N shard worker processes fed by a "
        "reader process (true multi-process "
        "ingestion; packet inputs only)",
    )
    parser.add_argument(
        "--ring-slots",
        type=int,
        default=None,
        help="shared-memory ring slots per worker: the "
        "batches in flight before the reader "
        "blocks (backpressure bound)",
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


def _add_output_options(
    command: argparse.ArgumentParser,
    quiet: str | None = "suppress the per-slot monitor lines",
    json_help: str | None = "print a machine-readable JSON summary",
) -> None:
    """The shared ``--quiet``/``--json`` output flags.

    ``None`` for either help string omits that flag; every subcommand
    installs its output surface through here so the flags stay
    spelled, defaulted, and documented identically.
    """
    if quiet is not None:
        command.add_argument("--quiet", action="store_true", help=quiet)
    if json_help is not None:
        command.add_argument(
            "--json", action="store_true", help=json_help
        )


def _scheme_and_feature(args: argparse.Namespace) -> tuple[Scheme, Feature]:
    scheme = Scheme.AEST if args.scheme == "aest" else Scheme.CONSTANT_LOAD
    feature = (
        Feature.SINGLE if args.feature == "single" else Feature.LATENT_HEAT
    )
    return scheme, feature


def _engine_config(args: argparse.Namespace) -> EngineConfig:
    return EngineConfig(
        alpha=args.alpha, beta=args.beta, window=args.window
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
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


def _cmd_classify(args: argparse.Namespace) -> int:
    matrix = _load_matrix(args.matrix)
    scheme, feature = _scheme_and_feature(args)
    engine = ClassificationEngine(matrix, _engine_config(args))
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


def _load_matrix(path: str) -> RateMatrix:
    """Load a matrix artefact, folding load failures into ReproError."""
    try:
        if path.endswith(".npz"):
            return RateMatrix.load_npz(path)
        return RateMatrix.load_csv(path)
    except ReproError:
        raise
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise ReproError(f"cannot load matrix {path!r}: {exc}") from exc


def _packet_input(args: argparse.Namespace):
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
            raise ReproError(
                f"cannot read capture {path!r}: {exc}"
            ) from exc
    source = SourceSpec.from_path(path)
    if args.rib:
        resolver = read_rib(args.rib)
    else:
        resolver = FixedLengthResolver(args.prefix_length)
    return source, resolver


def _stream_source(
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
    packet_input = _packet_input(args)
    if packet_input is None:
        if not spec.sampling.is_null:
            raise ReproError(
                "--sample-rate/--sample-mode apply to packet inputs; "
                "a rate-matrix replay has no packets to sample"
            )
        return MatrixSlotSource(_load_matrix(args.input)), None, spec
    source_spec, resolver = packet_input
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


def _print_slot_line(event) -> None:
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


def _print_summary(
    summary: dict[str, object], as_json: bool, title: str
) -> None:
    if as_json:
        print(json.dumps(summary, indent=2))
        return
    rows = [[key, value] for key, value in summary.items()]
    print(format_table(["metric", "value"], rows, title=title))


def _monitor_name(args: argparse.Namespace) -> str:
    return args.monitor if args.monitor else args.input


def _spec_summary(
    summary: dict[str, object],
    spec: PipelineSpec,
    backend: AggregationBackend | None = None,
) -> None:
    """Fold the spec's sampling/admission facts into a summary dict."""
    if not spec.sampling.is_null:
        summary["sample_rate"] = spec.sampling.rate
        summary["sample_mode"] = spec.sampling.mode
        summary["inverted"] = spec.sampling.invert
    if spec.admission != "none":
        summary["admission"] = spec.admission
        if backend is not None:
            # a fleet's gates lived in the workers, as its tables did
            rejected = backend.admission_rejected_bytes
            summary["admission_rejected_bytes"] = rejected


def _env_faults() -> FaultPlan | None:
    """The ``REPRO_FAULT_PLAN`` plan; ``None`` when it injects nothing."""
    plan = FaultPlan.from_env()
    return None if plan.is_empty else plan


def _cmd_stream(args: argparse.Namespace) -> int:
    """``repro stream``: in-process or, with ``--workers N``, a fleet.

    The two modes share this one body. ``--workers`` only swaps where
    the classified events, the packet stats and the published
    summaries come from: reader → workers → collector, whose merged
    summaries are the run's records, instead of an in-process
    aggregator whose frames are summarized as they are classified.
    """
    if args.retry < 0 or args.retry_backoff < 0:
        raise ReproError("--retry and --retry-backoff must be >= 0")
    scheme, feature = _scheme_and_feature(args)
    spec = PipelineSpec.from_args(args)
    config = _engine_config(args)
    faults = _env_faults()
    backend: AggregationBackend | None = None
    stats = merged = None
    if spec.workers > 1:
        packet_input = _packet_input(args)
        if packet_input is None:
            raise ReproError(
                "--workers needs a packet input (pcap capture, packet "
                "csv, or flow-record csv); matrix replays have no "
                "packets to partition"
            )
        source_spec, resolver = packet_input
        spec = spec.replace(source=source_spec)
        ingest = parallel_ingest(
            None,
            resolver,
            spec=spec,
            slot_seconds=args.slot_seconds,
            faults=faults,
        )
        if all(not run for run in ingest.runs):
            print("no slots in input", file=sys.stderr)
            return 1
        collector = ingest.collector(
            scheme=scheme, feature=feature, config=config
        )
        pipeline = collector.pipeline()
        stats = ingest.stats
        merged = collector.merged
    else:
        backend = spec.build_backend()
        source, aggregator, spec = _stream_source(args, spec, backend)
        pipeline = StreamingPipeline(
            source,
            scheme=scheme,
            feature=feature,
            config=config,
            backend=(backend if aggregator is None else None),
            sampling=spec.sampling,
        )
        if aggregator is not None:
            stats = aggregator.stats
    slot_seconds = pipeline.source.slot_seconds
    client: MonitorClient | None = None
    if args.connect is not None:
        # In-process slots go out live, as they are classified. A
        # fleet's slots already met at its in-process collector, so
        # its merged run ships after the fact, as one monitor —
        # through the same client.
        try:
            client = MonitorClient(
                parse_address(args.connect),
                _monitor_name(args),
                link=args.link_name,
                retries=args.retry,
                backoff=args.retry_backoff,
                faults=faults,
            )
        except OSError as exc:
            raise ReproError(
                f"cannot reach collector at {args.connect!r}: {exc}"
            ) from exc
    slots = 0
    has_residual = False
    summaries: list[SlotSummary] = []
    slot_entries: list[list[dict[str, object]]] = []
    flow_rows: list[FlowInfoRecord] = []
    for event in pipeline.events():
        has_residual = event.frame.residual_row is not None
        if args.json:
            slot_entries.append(
                elephant_entries(event.frame, event.verdict)
            )
        if args.flow_csv_out is not None:
            flow_rows.extend(
                slot_flow_records(
                    event.frame,
                    slot_seconds,
                    first_flow_id=len(flow_rows),
                )
            )
        if args.summary_out is not None or client is not None:
            record = (
                merged[slots]
                if merged is not None
                else SlotSummary.from_frame(
                    event.frame,
                    slot_seconds,
                    monitor=_monitor_name(args),
                )
            )
            if args.summary_out is not None:
                summaries.append(record)
            if client is not None:
                # paced by the collector's acks; a failure that gets
                # out has spent the redial budget and closed the socket
                try:
                    client.publish(record)
                except OSError as exc:
                    raise ReproError(
                        f"collector connection lost: {exc}"
                    ) from exc
        slots += 1
        if args.quiet or args.json:
            continue
        _print_slot_line(event)
    if client is not None:
        try:
            client.close()
        except OSError as exc:
            raise ReproError(
                f"collector connection lost: {exc}"
            ) from exc
    if slots == 0:
        print("no slots in input", file=sys.stderr)
        return 1
    if args.summary_out is not None:
        save_summaries(args.summary_out, summaries)
    series = pipeline.series()
    num_flows = (
        pipeline.classifier.num_flows
        if pipeline.classifier is not None
        else 0
    )
    if has_residual and num_flows > 0:
        num_flows -= 1  # the residual accounting row is not a flow
    summary: dict[str, object] = {
        "run": pipeline.label,
        "backend": spec.backend,
        "num_slots": slots,
        "num_flows": num_flows,
        "mean_elephants_per_slot": series.mean_count,
        "mean_traffic_fraction": series.mean_fraction,
    }
    _spec_summary(summary, spec, backend)
    for split in ("shards", "workers"):
        if getattr(spec, split) > 1:
            summary[split] = getattr(spec, split)
    if backend is not None:
        summary.update(
            {
                "capacity": backend.capacity,
                "tracked_flows": backend.tracked_flows,
                "peak_tracked_flows": backend.peak_tracked,
                "population_rows": backend.num_rows,
            }
        )
    elif spec.resolved_capacity is not None:
        # a fleet's tables lived in the workers: the spec's total bound
        # is the only table fact left to report
        summary["capacity"] = spec.resolved_capacity
    if has_residual:
        summary["mean_residual_fraction"] = series.mean_residual_fraction
    if stats is not None:
        summary.update(
            {
                "packets_seen": stats.packets_seen,
                "packets_matched": stats.packets_matched,
                "packets_unrouted": stats.packets_unrouted,
                "packets_skipped": stats.packets_skipped,
                "bytes_matched": stats.bytes_matched,
            }
        )
    if args.summary_out is not None:
        summary["summary_out"] = args.summary_out
    if args.flow_csv_out is not None:
        summary["flow_csv_out"] = args.flow_csv_out
        summary["flow_records_written"] = write_flow_records(
            args.flow_csv_out, flow_rows
        )
    if client is not None:
        summary.update(
            {
                "connect": args.connect,
                "published": client.published,
                "stale": client.stale,
                "skipped": client.skipped,
                "reconnects": client.reconnects,
            }
        )
    if args.json:
        summary = {
            **result_envelope("stream", spec.describe(), slot_entries),
            **summary,
        }
    _print_summary(summary, args.json, "stream summary")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    scheme, feature = _scheme_and_feature(args)
    runs = [load_summaries(path) for path in args.summaries]
    collector = Collector(
        runs,
        k=args.k,
        scheme=scheme,
        feature=feature,
        config=_engine_config(args),
        fill_gaps=args.fill_gaps,
    )
    slots = 0
    slot_entries: list[list[dict[str, object]]] = []
    for event in collector.events():
        slots += 1
        slot_entries.append(
            elephant_entries(event.frame, event.verdict)
        )
        if args.quiet or args.json:
            continue
        _print_slot_line(event)
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
    _print_summary(summary, args.json, "merge summary")
    return 0


def _write_port_file(path: str, host: str, port: int) -> None:
    """Atomically publish the bound address.

    Scripts poll for this file as the readiness signal, so it must
    never be observable half-written: write a sibling temp file and
    rename it into place.
    """
    temp_path = f"{path}.tmp"
    with open(temp_path, "w") as handle:
        handle.write(f"{host}:{port}\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp_path, path)


def _cmd_collect(args: argparse.Namespace) -> int:
    scheme, feature = _scheme_and_feature(args)
    host, port = parse_address(args.listen)
    if args.max_inflight < 1:
        raise ReproError("--max-inflight must be >= 1")
    if args.k is not None and args.k < 0:
        raise ReproError("--k must be >= 0")
    if args.once is not None and args.once < 1:
        raise ReproError("--once must be >= 1")
    service = CollectorService(
        host,
        port,
        k=args.k,
        fill_gaps=not args.no_fill_gaps,
        scheme=scheme,
        feature=feature,
        config=_engine_config(args),
        max_inflight=args.max_inflight,
        once=args.once,
        state_dir=args.state_dir,
        faults=_env_faults(),
    )

    async def _serve() -> None:
        bound_host, bound_port = await service.start()
        if args.port_file is not None:
            _write_port_file(args.port_file, bound_host, bound_port)
        if not args.quiet:
            print(
                f"collector listening on {bound_host}:{bound_port}",
                flush=True,
            )
        try:
            await service.wait_done()
            if args.linger > 0:
                await asyncio.sleep(args.linger)
        finally:
            await service.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    finally:
        if args.port_file is not None:
            # a vanished port file is the readiness signal's inverse:
            # nothing is listening there any more
            with contextlib.suppress(FileNotFoundError):
                os.remove(args.port_file)
    if not args.quiet:
        collector = service.collector
        sealed = sum(
            link.slots_sealed for link in collector.links.values()
        )
        print(
            f"collector done: {collector.runs_completed} monitor "
            f"runs, {len(collector.links)} links, {sealed} slots "
            "sealed"
        )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
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


def _cmd_offload(args: argparse.Namespace) -> int:
    """``repro offload``: verdicts → rule-table dynamics.

    Classifies the input exactly like ``repro stream`` (same spec,
    same resolver flags) and replays every slot's verdict against a
    bounded rule table, reporting occupancy, byte coverage, and churn.
    """
    scheme, feature = _scheme_and_feature(args)
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
    source, aggregator, spec = _stream_source(args, spec, backend)
    simulator = FlowTableSimulator(offload_spec, source.slot_seconds)
    pipeline = StreamingPipeline(
        source,
        scheme=scheme,
        feature=feature,
        config=_engine_config(args),
        backend=(backend if aggregator is None else None),
        sampling=spec.sampling,
    )
    slots = 0
    slot_entries: list[list[dict[str, object]]] = []
    for event in pipeline.events():
        slots += 1
        record = simulator.observe(event.frame, event.verdict)
        if args.json:
            slot_entries.append(
                elephant_entries(event.frame, event.verdict)
            )
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
        summary = result_envelope(
            "offload", spec.describe(), slot_entries
        )
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


def _cmd_figures(args: argparse.Namespace) -> int:
    run = run_paper_experiment(ExperimentConfig(scale=args.scale))
    print(Figure1a.from_run(run).render())
    print()
    print(Figure1b.from_run(run).render())
    print()
    print(Figure1c.from_run(run).render())
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Domain failures (unreadable inputs, bad backend parameters, ...)
    print one ``error:`` line to stderr and exit 2 — a monitor wrapper
    should never see a traceback for a malformed capture.
    """
    args = _build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "classify": _cmd_classify,
        "stream": _cmd_stream,
        "merge": _cmd_merge,
        "collect": _cmd_collect,
        "query": _cmd_query,
        "offload": _cmd_offload,
        "figures": _cmd_figures,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
