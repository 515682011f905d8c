"""``repro stream`` — classify a capture slot by slot through the
streaming pipeline: pcap in, verdicts out, memory bounded by
O(flows × window) however long the capture is. Also replays
``.npz``/``.csv`` matrices, shards the flow table (``--shards``), forks
true multi-process ingestion (``--workers``), exports per-slot summaries
for a collector (``--summary-out``) and streams them live into a
running collector daemon (``--connect``)."""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from repro.cli.common import (
    add_capture_args,
    add_output_options,
    engine_config,
    env_faults,
    packet_input,
    print_slot_line,
    print_summary,
    scheme_and_feature,
    stream_source,
)
from repro.distributed.envelope import elephant_entries, result_envelope
from repro.errors import ReproError
from repro.pipeline.engine import StreamingPipeline
from repro.pipeline.spec import PipelineSpec

if TYPE_CHECKING:
    from repro.flows.interchange import FlowInfoRecord
    from repro.pipeline.backends import AggregationBackend


def add_arguments(command: argparse.ArgumentParser) -> None:
    add_capture_args(command)
    command.add_argument(
        "--summary-out",
        metavar="FILE",
        default=None,
        help="write per-slot summaries (.npz) for `repro merge`",
    )
    command.add_argument(
        "--flow-csv-out",
        metavar="FILE",
        default=None,
        help="export one flow_info.csv record per (flow, slot); "
        "the export replays through `repro stream` (or any "
        "other command taking a capture) without the "
        "original input",
    )
    command.add_argument(
        "--connect",
        metavar="HOST:PORT",
        default=None,
        help="stream per-slot summaries live into a "
        "running `repro collect --listen` daemon",
    )
    command.add_argument(
        "--monitor",
        default=None,
        help="monitor name announced to the collector "
        "(default: the input path)",
    )
    command.add_argument(
        "--link-name",
        default=None,
        metavar="LINK",
        help="link this monitor taps, for --connect",
    )
    command.add_argument(
        "--retry",
        type=int,
        default=0,
        metavar="N",
        help="with --connect: the monitor's redial budget; a "
        "transport failure is redialed up to N consecutive times, "
        "replaying unacked summaries (0 = fail fast)",
    )
    command.add_argument(
        "--retry-backoff",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="base reconnect delay; doubles per failed "
        "attempt (capped), with jitter",
    )
    add_output_options(command)


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


def run(args: argparse.Namespace) -> int:
    """``repro stream``: in-process or, with ``--workers N``, a fleet.

    The two modes share this one body. ``--workers`` only swaps where
    the classified events, the packet stats and the published
    summaries come from: this process → workers → back here, whose merged
    summaries are the run's records, instead of an in-process
    aggregator whose frames are summarized as they are classified.
    """
    if args.retry < 0 or args.retry_backoff < 0:
        raise ReproError("--retry and --retry-backoff must be >= 0")
    scheme, feature = scheme_and_feature(args)
    spec = PipelineSpec.from_args(args)
    config = engine_config(args)
    faults = env_faults()
    backend: AggregationBackend | None = None
    stats = merged = None
    if spec.workers > 1:
        # here, not up top: the fleet needs multiprocessing and the ring
        from repro.distributed.runner import parallel_ingest

        packets = packet_input(args)
        if packets is None:
            raise ReproError(
                "--workers needs a packet input (pcap capture, packet "
                "csv, or flow-record csv); matrix replays have no "
                "packets to partition"
            )
        source_spec, resolver = packets
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
        source, aggregator, spec = stream_source(args, spec, backend)
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
    client = None
    if args.connect is not None:
        # here, not up top: only a publishing monitor opens a socket
        from repro.distributed.client import (
            DEFAULT_LINK,
            MonitorClient,
            parse_address,
        )

        # In-process slots go out live, as they are classified. A
        # fleet's slots already met at its in-process collector, so
        # its merged run ships after the fact, as one monitor —
        # through the same client.
        try:
            client = MonitorClient(
                parse_address(args.connect),
                _monitor_name(args),
                link=(
                    DEFAULT_LINK if args.link_name is None else args.link_name
                ),
                retries=args.retry,
                backoff=args.retry_backoff,
                faults=faults,
            )
        except OSError as exc:
            raise ReproError(
                f"cannot reach collector at {args.connect!r}: {exc}"
            ) from exc
    # here, not up top, like the fleet and the client: an exact
    # `--json` run loads neither the summary codec nor the csv exporter
    publishing = args.summary_out is not None or client is not None
    if publishing:
        from repro.distributed.summary import SlotSummary, save_summaries
    if args.flow_csv_out is not None:
        from repro.flows.interchange import (
            slot_flow_records,
            write_flow_records,
        )
    slots = 0
    has_residual = False
    summaries: list[SlotSummary] = []
    slot_entries: list[list[dict[str, object]]] = []
    flow_rows: list[FlowInfoRecord] = []
    for event in pipeline.events():
        has_residual = event.frame.residual_row is not None
        if args.json:
            slot_entries.append(elephant_entries(event.frame, event.verdict))
        if args.flow_csv_out is not None:
            flow_rows.extend(
                slot_flow_records(
                    event.frame,
                    slot_seconds,
                    first_flow_id=len(flow_rows),
                )
            )
        if publishing:
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
        print_slot_line(event)
    if client is not None:
        try:
            client.close()
        except OSError as exc:
            raise ReproError(f"collector connection lost: {exc}") from exc
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
            **result_envelope(
                "stream",
                spec.describe(),
                slot_entries,
                below_table=pipeline.below_table_slots,
            ),
            **summary,
        }
    print_summary(summary, args.json, "stream summary")
    return 0
