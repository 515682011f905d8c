"""``collector-live``: two monitors, one daemon, writes beside reads.

The second end-to-end path: monitor → ``repro collect --listen`` →
query. No packet is touched; framing, the summary wire records, merge,
seal-and-classify, the fsynced WAL and the reply serializer carry the
time. One thread drives two :class:`MonitorClient` connections cell by
cell — a closed loop: a client's next summary goes out only while
fewer than the granted ``max_inflight`` are unacked.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.distributed import (
    CheckpointStore,
    Collector,
    FrameDecoder,
    MergedSlotSource,
    MonitorClient,
    elephant_entries,
    encode_summary,
    merge_summaries,
    parse_address,
    query_service,
    result_envelope,
)
from repro.errors import ReproError
from repro.pipeline import StreamingPipeline

from perfbench import inputs
from perfbench.harness import (
    REPO_ROOT,
    Checks,
    Sizes,
    child_env,
    repeat,
    repro_command,
    summarize,
)
from perfbench.packets import RESULT_SCHEMA, accuracy
from perfbench.pipeline import wire_round_trip
from perfbench.spans import Tracer

MONITORS = ("mon-a", "mon-b")
DAEMON_START_SECONDS = 60.0
#: Phase ``ingest`` is timed in stretches of this many cells, so that a
#: run can take each stretch from the repetition that was fastest on it.
INGEST_STRETCH_CELLS = 10

REPETITION_CHECKS = (
    "delivery_mon-a",
    "delivery_mon-b",
    "schema",
    "slots",
    "equals_offline_collector",
)


@dataclass
class CollectorInputs:
    runs: dict[str, list]
    #: ``elephants_by_slot`` of the offline ``Collector`` answer.
    reference: list[list[dict]]
    capacity: int
    ingest_cells: int
    workdir: Path

    @property
    def cells(self) -> int:
        return len(self.runs[MONITORS[0]])


class Daemon:
    """One ``repro collect --listen`` child on a state directory."""

    def __init__(self, state_dir: Path, capacity: int) -> None:
        port_file = state_dir.with_suffix(".port")
        port_file.unlink(missing_ok=True)
        self.process = subprocess.Popen(
            repro_command(
                "collect",
                "--listen",
                "127.0.0.1:0",
                "--state-dir",
                str(state_dir),
                "--port-file",
                str(port_file),
                "--k",
                str(capacity),
                "--quiet",
            ),
            env=child_env(),
            cwd=REPO_ROOT,
        )
        self.peak_rss_mb = 0.0
        try:
            self.address = self._await_address(port_file)
        except BaseException:
            self.kill()
            raise

    def _await_address(self, port_file: Path) -> tuple[str, int]:
        deadline = time.monotonic() + DAEMON_START_SECONDS
        while time.monotonic() < deadline:
            if port_file.exists():
                return parse_address(port_file.read_text().strip())
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError("the collector daemon did not start listening")

    def kill(self) -> None:
        """SIGKILL — a crash, as far as the state directory can tell.

        The peak RSS is read from ``/proc`` first: the ``wait4`` figure
        would carry the benchmark's own high-water mark across the
        daemon's ``exec``, ``VmHWM`` is the daemon's address space only.
        """
        if self.process.poll() is not None:
            return
        try:
            status = Path(f"/proc/{self.process.pid}/status").read_text()
            peak_kb = int(status.split("VmHWM:")[1].split()[0])
            self.peak_rss_mb = peak_kb / 1024.0
        except (OSError, IndexError, ValueError):
            self.peak_rss_mb = 0.0
        self.process.kill()
        self.process.wait()


@dataclass
class LiveRun:
    #: Seconds of each stretch of phase ``ingest``; the last one ends
    #: when every ack is in.
    ingest_stretches: list[float]
    query_seconds: list[float]
    peak_rss_mb: float
    recall: float
    precision: float
    tracked_fraction: float
    reply_bytes: int
    state_dir: Path
    final: dict | None


class CollectorLive:
    name = "collector-live"

    def setup(self, rng, sizes: Sizes, workdir: Path) -> CollectorInputs:
        cells = sizes.ingest_cells + sizes.mixed_cells
        runs = inputs.make_summaries(
            rng,
            cells,
            sizes.summary_entries,
            sizes.summary_elephants,
            MONITORS,
        )
        offline = Collector(
            [runs[monitor] for monitor in MONITORS],
            k=sizes.summary_entries,
            fill_gaps=True,
        )
        reference = [
            elephant_entries(event.frame, event.verdict)
            for event in offline.events()
        ]
        return CollectorInputs(
            runs=runs,
            reference=reference,
            capacity=sizes.summary_entries,
            ingest_cells=sizes.ingest_cells,
            workdir=workdir,
        )

    def repetition(self, made: CollectorInputs, checks: Checks) -> LiveRun:
        """Phase ``ingest``, phase ``mixed``, BYE, one final query."""
        state_dir = Path(tempfile.mkdtemp(prefix="state-", dir=made.workdir))
        daemon = Daemon(state_dir, made.capacity)
        clients: list[MonitorClient] = []
        try:
            for monitor in MONITORS:
                clients.append(MonitorClient(daemon.address, monitor))
            runs = [made.runs[monitor] for monitor in MONITORS]
            stamps = []
            for first in range(0, made.ingest_cells, INGEST_STRETCH_CELLS):
                stamps.append(time.perf_counter())
                beyond = min(first + INGEST_STRETCH_CELLS, made.ingest_cells)
                for cell in range(first, beyond):
                    for client, run in zip(clients, runs):
                        client.publish(run[cell])
            for client in clients:
                client.drain()
            stamps.append(time.perf_counter())
            query_seconds = []
            for cell in range(made.ingest_cells, made.cells):
                for client, run in zip(clients, runs):
                    client.publish(run[cell])
                # the reader's own acks are waited out untimed; the
                # other monitor's writes stay in flight ahead of the read
                clients[0].drain()
                started = time.perf_counter()
                clients[0].query()
                query_seconds.append(time.perf_counter() - started)
            for client in clients:
                client.close()
            final = query_service(daemon.address)
            for client in clients:
                checks.check(
                    f"delivery_{client.monitor}",
                    client.published + client.stale + client.skipped
                    == made.cells,
                )
        except (OSError, ReproError) as exc:
            checks.fail_all(REPETITION_CHECKS, repr(exc))
            for client in clients:
                client.abort()
            daemon.kill()
            return LiveRun(
                ingest_stretches=[],
                query_seconds=[],
                peak_rss_mb=daemon.peak_rss_mb,
                recall=0.0,
                precision=0.0,
                tracked_fraction=0.0,
                reply_bytes=0,
                state_dir=state_dir,
                final=None,
            )
        finally:
            daemon.kill()
        by_slot = final.get("elephants_by_slot", [])
        checks.check("schema", final.get("schema") == RESULT_SCHEMA)
        checks.check("slots", final.get("slots") == made.cells)
        checks.check("equals_offline_collector", by_slot == made.reference)
        recall, precision = accuracy(by_slot, made.reference)
        return LiveRun(
            ingest_stretches=[
                end - start for start, end in zip(stamps, stamps[1:])
            ],
            query_seconds=query_seconds,
            peak_rss_mb=daemon.peak_rss_mb,
            recall=recall,
            precision=precision,
            tracked_fraction=1.0 - final.get("residual_fraction", 1.0),
            reply_bytes=len(json.dumps(final)),
            state_dir=state_dir,
            final=final,
        )

    def restart(
        self, made: CollectorInputs, last: LiveRun, checks: Checks
    ) -> float:
        """A new daemon on the killed one's state answers the same.

        Returns the seconds from spawn to that first answer.
        """
        started = time.perf_counter()
        daemon = Daemon(last.state_dir, made.capacity)
        try:
            again = query_service(daemon.address)
            seconds = time.perf_counter() - started
        finally:
            daemon.kill()
        checks.check(
            "same_answer_after_restart",
            last.final is not None
            and again.get("elephants_by_slot")
            == last.final["elephants_by_slot"]
            and again.get("slots") == last.final["slots"],
        )
        return seconds

    def measure(
        self, made: CollectorInputs, seconds: float, sizes: Sizes
    ) -> tuple[dict, dict, Checks]:
        checks = Checks()
        reps = repeat(lambda: self.repetition(made, checks), seconds, sizes)
        last = reps[-1]
        self.restart(made, last, checks)
        rss = [rep.peak_rss_mb for rep in reps]
        metrics = {
            "items_per_s": 0.0,
            "answer_ms_p50": 0.0,
            "peak_rss_mb": statistics.median(rss),
            "elephant_recall": last.recall,
            "elephant_precision": last.precision,
            "tracked_fraction": last.tracked_fraction,
        }
        samples = {"peak_rss_mb": summarize(rss)}
        answered = [rep for rep in reps if rep.final is not None]
        if answered:
            # the harness's "fastest repetition", taken stretch by
            # stretch and query by query: a neighbour slows the box for
            # fractions of a second at a time, so a whole repetition is
            # rarely untouched, while each of its parts is in one
            # repetition or another
            acked = len(MONITORS) * made.ingest_cells
            stretches = zip(*(rep.ingest_stretches for rep in answered))
            positions = zip(*(rep.query_seconds for rep in answered))
            metrics["items_per_s"] = acked / sum(map(min, stretches))
            metrics["answer_ms_p50"] = 1e3 * statistics.median(
                map(min, positions)
            )
            samples["items_per_s"] = summarize(
                [acked / sum(rep.ingest_stretches) for rep in answered]
            )
            samples["answer_ms_p50"] = summarize(
                [
                    1e3 * statistics.median(rep.query_seconds)
                    for rep in answered
                ]
            )
        return metrics, samples, checks

    # -- traced run -----------------------------------------------------

    def trace(
        self, made: CollectorInputs, seconds: float, sizes: Sizes
    ) -> tuple[dict, dict, Checks]:
        """One live repetition for the service numbers, then every
        layer the daemon runs replayed in this process over the same
        summaries."""
        checks = Checks()
        live = self.repetition(made, checks)
        slowest_first = sorted(live.query_seconds or [0.0], reverse=True)
        counts = {
            "service.query_ms_p90": 1e3
            * slowest_first[len(slowest_first) // 10],
            "service.query_reply_bytes": live.reply_bytes,
            "service.restart_to_query_s": self.restart(made, live, checks),
            "service.ack_rtt_ms_p50": self._ack_round_trip(made, sizes),
            # the daemon runs unproxied: tracing costs it nothing
            "harness.trace_overhead_share": 0.0,
        }
        tracer = Tracer()
        counts.update(_replay_layers(made, tracer, checks))
        return tracer.stages, counts, checks

    def _ack_round_trip(self, made: CollectorInputs, sizes: Sizes) -> float:
        """publish → ack with one summary in flight, median in ms."""
        state_dir = Path(tempfile.mkdtemp(prefix="state-", dir=made.workdir))
        daemon = Daemon(state_dir, made.capacity)
        try:
            client = MonitorClient(daemon.address, MONITORS[0], max_inflight=1)
            waits = []
            for summary in made.runs[MONITORS[0]][: sizes.ack_probe_cells]:
                started = time.perf_counter()
                client.publish(summary)
                client.drain()
                waits.append(time.perf_counter() - started)
            client.close()
        finally:
            daemon.kill()
        return statistics.median(waits) * 1e3


def _replay_layers(
    made: CollectorInputs, tracer: Tracer, checks: Checks
) -> dict:
    """What the daemon does per summary and per sealed cell, timed."""
    wire_bytes = 0
    decoder = FrameDecoder()
    for monitor in MONITORS:
        for summary in made.runs[monitor]:
            wire_bytes += wire_round_trip(summary, tracer)
            with tracer.span("framing.encode", rows=summary.num_entries):
                frame = encode_summary(summary)
            with tracer.span("framing.decode", rows=summary.num_entries):
                decoder.feed(frame)
    source = MergedSlotSource([], slot_seconds=inputs.SLOT_SECONDS)
    pipeline = StreamingPipeline(source)
    state_dir = Path(tempfile.mkdtemp(prefix="replay-", dir=made.workdir))
    entries = []
    with CheckpointStore(state_dir) as store:
        for cell in range(made.cells):
            pair = [made.runs[monitor][cell] for monitor in MONITORS]
            rows = sum(summary.num_entries for summary in pair)
            with tracer.span("merge.merge_summaries", rows=rows):
                merged = merge_summaries(pair, k=made.capacity, slot=cell)
            with tracer.span("checkpoint.append", rows=merged.num_entries):
                store.append("link0", merged)
            frame = source.frame_of(merged)
            with tracer.span("classify.observe", rows=frame.num_flows):
                event = pipeline.observe(frame)
            with tracer.span(
                "envelope.entries", rows=event.verdict.num_elephants
            ):
                entries.append(elephant_entries(event.frame, event.verdict))
        wal_bytes = store.wal_path.stat().st_size
    with tracer.span("envelope.json", rows=len(entries)):
        reply = json.dumps(result_envelope("query", {}, entries))
    with tracer.span("checkpoint.restore", rows=made.cells):
        with CheckpointStore(state_dir) as store:
            restored = store.records
    checks.check("replay_equals_offline_collector", entries == made.reference)
    checks.check("checkpoint_restores_all", restored == made.cells)
    return {
        "summary.wire_bytes": wire_bytes,
        "envelope.bytes": len(reply),
        "checkpoint.wal_bytes": wal_bytes,
    }
