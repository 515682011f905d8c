"""The four packet workloads: what runs, what is checked, what is traced.

``pcap-exact`` and ``fleet-2w`` run the ``repro stream`` CLI over a
generated pcap; ``mem-sketch-churn`` and ``mem-sampled-bloom`` run the
same pipeline in a child process over in-memory columns, where parsing
is out of the way and the sketch or the sampler carries the time. Every
repetition's answer is checked against the independent reference before
its time counts.
"""

from __future__ import annotations

import json
import os
import queue
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.distributed import (
    RingConsumer,
    RingWriter,
    ShmRing,
    elephant_entries,
    merge_summaries,
    parallel_ingest,
)
from repro.distributed.shm_ring import SHM_NAME_PREFIX
from repro.net.prefix import Prefix
from repro.pipeline import PipelineSpec, SourceSpec, shard_of
from repro.routing.lpm import CompiledLpm, FixedLengthResolver
from repro.sketches.array_tables import ArraySpaceSaving
from repro.sketches.bloom import DEFAULT_ADMISSION_THRESHOLD, gated_table

from perfbench import inputs
from perfbench.child import COLUMNS, mem_spec
from perfbench.harness import (
    Checks,
    Sizes,
    repeat,
    repro_command,
    run_child,
    summarize,
)
from perfbench.pipeline import (
    run_pipeline,
    summary_round_trip,
    wire_round_trip,
)
from perfbench.spans import Tracer, span_of

#: Spelled out, not imported: a schema bump in the program must show
#: up here as a failed check.
RESULT_SCHEMA = "repro.result/1"
SLOT_BYTES_TOLERANCE = 1e-6

#: The checks one repetition owes; a repetition without an answer
#: fails them all.
REPETITION_CHECKS = ("exit", "schema", "packets", "bytes", "elephants")


@dataclass
class PacketInputs:
    """What one packet workload's setup leaves behind."""

    trace: inputs.Trace
    reference: list[list[dict]]
    command: list[str]
    #: Packets offered per repetition (before any sampling).
    offered: int
    #: Packets and bytes the pipeline must report as matched.
    expect_packets: int
    expect_bytes: int
    #: Bytes that must arrive in each slot (None: not checked here).
    slot_arrivals: np.ndarray | None
    workdir: Path
    #: Workload-specific settings the repetitions and traced run read.
    config: dict | None = None
    #: The packet columns a ``mem-*`` child loads from disk.
    columns: tuple | None = None


def prefix_sets(by_slot: list[list[dict]]) -> list[set[str]]:
    """Which prefixes are elephants in each slot, rates aside."""
    return [{entry["prefix"] for entry in slot} for slot in by_slot]


def accuracy(
    answer: list[list[dict]], reference: list[list[dict]]
) -> tuple[float, float]:
    """Recall and precision of per-slot elephant sets, pooled."""
    if len(answer) != len(reference):
        return 0.0, 0.0
    hits = found = wanted = 0
    for got, want in zip(prefix_sets(answer), prefix_sets(reference)):
        hits += len(got & want)
        found += len(got)
        wanted += len(want)
    return (
        hits / wanted if wanted else 1.0,
        hits / found if found else 1.0,
    )


def _ring_segments() -> set[str]:
    """The fleet's shared-memory segments alive right now."""
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return set()
    return {name for name in names if name.startswith(SHM_NAME_PREFIX)}


def _slots_conserved(
    slot_bytes: list, arrivals: np.ndarray, checks: Checks
) -> None:
    """tracked + residual == arrived, slot by slot."""
    totals = np.array([flows + rest for flows, rest in slot_bytes])
    ok = totals.shape == arrivals.shape and np.allclose(
        totals, arrivals, rtol=SLOT_BYTES_TOLERANCE
    )
    checks.check("slot_bytes_conserved", bool(ok))


@dataclass
class Repetition:
    seconds: float
    peak_rss_mb: float
    recall: float
    precision: float
    tracked_fraction: float
    envelope: dict | None


class PacketWorkload:
    """Shared measure loop; subclasses say what runs and what holds."""

    name = ""
    #: Whether the answer must equal the reference exactly.
    exact = False

    def setup(
        self, rng: np.random.Generator, sizes: Sizes, workdir: Path
    ) -> PacketInputs:
        raise NotImplementedError

    def facts_of(self, answer: dict) -> dict:
        """Normalise a child's answer to envelope + accounting."""
        return {
            "envelope": answer,
            "packets_matched": answer.get("packets_matched"),
            "bytes_matched": answer.get("bytes_matched"),
            "residual_fraction": answer.get("mean_residual_fraction", 0.0),
        }

    def extra_checks(
        self, made: PacketInputs, facts: dict, checks: Checks
    ) -> None:
        """Workload-specific checks on one repetition's answer."""

    def repetition(self, made: PacketInputs, checks: Checks) -> Repetition:
        child, answer = run_child(made.command)
        if answer is None:
            checks.fail_all(
                REPETITION_CHECKS, f"child exited {child.returncode}"
            )
            return Repetition(
                child.seconds, child.peak_rss_mb, 0.0, 0.0, 0.0, None
            )
        facts = self.facts_of(answer)
        envelope = facts["envelope"]
        checks.check("exit", True)
        checks.check("schema", envelope.get("schema") == RESULT_SCHEMA)
        checks.check(
            "packets",
            facts["packets_matched"] == made.expect_packets,
            f"{facts['packets_matched']} != {made.expect_packets}",
        )
        checks.check(
            "bytes",
            facts["bytes_matched"] == made.expect_bytes,
            f"{facts['bytes_matched']} != {made.expect_bytes}",
        )
        by_slot = envelope.get("elephants_by_slot", [])
        recall, precision = accuracy(by_slot, made.reference)
        if self.exact:
            checks.check("elephants", by_slot == made.reference)
        else:
            checks.check("elephants", len(by_slot) == made.trace.num_slots)
        self.extra_checks(made, facts, checks)
        return Repetition(
            seconds=child.seconds,
            peak_rss_mb=child.peak_rss_mb,
            recall=recall,
            precision=precision,
            tracked_fraction=1.0 - facts["residual_fraction"],
            envelope=envelope,
        )

    def after(
        self, made: PacketInputs, last: Repetition, checks: Checks
    ) -> None:
        """Checks made once per run, after the timed repetitions."""

    def measure(
        self, made: PacketInputs, seconds: float, sizes: Sizes
    ) -> tuple[dict, dict, Checks]:
        checks = Checks()
        reps = repeat(lambda: self.repetition(made, checks), seconds, sizes)
        self.after(made, reps[-1], checks)
        walls = [rep.seconds for rep in reps]
        wall = min(walls)
        last = reps[-1]
        metrics = {
            "items_per_s": made.offered / wall,
            "answer_ms_p50": wall * 1e3,
            "peak_rss_mb": statistics.median(rep.peak_rss_mb for rep in reps),
            "elephant_recall": last.recall,
            "elephant_precision": last.precision,
            "tracked_fraction": last.tracked_fraction,
        }
        samples = {
            "items_per_s": summarize([made.offered / w for w in walls]),
            "answer_ms_p50": summarize([w * 1e3 for w in walls]),
            "peak_rss_mb": summarize([rep.peak_rss_mb for rep in reps]),
        }
        return metrics, samples, checks

    # -- traced run -----------------------------------------------------

    def traced_pass(
        self, made: PacketInputs, tracer: Tracer | None, checks: Checks
    ) -> tuple[float, dict]:
        """One in-process pass: its seconds and the counts it took."""
        raise NotImplementedError

    def trace(
        self, made: PacketInputs, seconds: float, sizes: Sizes
    ) -> tuple[dict, dict, Checks]:
        """Untraced pass, then traced passes for the rest of the time.

        Spans are the per-span median over the traced passes; the
        difference between the two kinds of pass is the tracing
        overhead.
        """
        checks = Checks()
        started = time.perf_counter()
        plain, _ = self.traced_pass(made, None, checks)
        passes = []
        walls = []
        while True:
            tracer = Tracer()
            before = time.perf_counter()
            wall, counts = self.traced_pass(made, tracer, checks)
            walls.append(wall)
            passes.append(tracer.stages)
            now = time.perf_counter()
            if now - started + (now - before) > seconds:
                break
        traced = statistics.median(walls)
        counts["harness.trace_overhead_share"] = (traced - plain) / plain
        counts["harness.plain_wall_s"] = plain
        counts["harness.traced_wall_s"] = traced
        return median_stages(passes), counts, checks


def median_stages(passes: list[dict]) -> dict:
    """Per-span median seconds over passes (calls and rows repeat)."""
    stages = {}
    for name in passes[-1]:
        seen = [run[name] for run in passes if name in run]
        stages[name] = dict(seen[-1])
        stages[name]["seconds"] = statistics.median(
            stage["seconds"] for stage in seen
        )
    return stages


def _timed_pipeline(spec, resolver, tracer, **kwargs):
    started = time.perf_counter()
    run = run_pipeline(spec, resolver, tracer, **kwargs)
    return run, time.perf_counter() - started


# ----------------------------------------------------------------------
# pcap-exact
# ----------------------------------------------------------------------


class PcapExact(PacketWorkload):
    name = "pcap-exact"
    exact = True

    def setup(self, rng, sizes, workdir):
        networks, lengths = inputs.make_rib(rng, sizes.rib_routes)
        chosen = rng.permutation(networks.size)[: sizes.pcap_flows]
        trace = inputs.make_trace(
            rng,
            sizes.pcap_packets,
            networks[chosen],
            lengths[chosen],
            sizes.pcap_slots,
            sizes.pcap_zipf,
        )
        pcap = str(workdir / "trace.pcap")
        rib = str(workdir / "rib.txt")
        inputs.write_pcap(pcap, trace)
        inputs.write_rib(rib, networks, lengths)
        return PacketInputs(
            trace=trace,
            reference=inputs.reference_entries(trace),
            command=repro_command(
                "stream",
                pcap,
                "--rib",
                rib,
                "--slot-seconds",
                str(int(inputs.SLOT_SECONDS)),
                "--json",
            ),
            offered=trace.num_packets,
            expect_packets=trace.num_packets,
            expect_bytes=trace.total_bytes,
            slot_arrivals=inputs.slot_arrivals(trace),
            workdir=workdir,
        )

    def traced_pass(self, made, tracer, checks):
        started = time.perf_counter()
        lines = (made.workdir / "rib.txt").read_text().split()
        with span_of(tracer, "lpm.compile", rows=len(lines)):
            resolver = CompiledLpm([Prefix.parse(line) for line in lines])
        spec = PipelineSpec(
            source=SourceSpec.from_path(str(made.workdir / "trace.pcap"))
        )
        run = run_pipeline(spec, resolver, tracer, keep_frames=True)
        wall = time.perf_counter() - started
        checks.check(
            "traced_elephants",
            run.envelope["elephants_by_slot"] == made.reference,
        )
        _slots_conserved(run.slot_bytes, made.slot_arrivals, checks)
        counts = {"envelope.bytes": len(run.envelope_json)}
        if tracer is not None:
            counts["summary.wire_bytes"] = summary_round_trip(
                run.frames, tracer
            )
        return wall, counts


# ----------------------------------------------------------------------
# mem-sketch-churn and mem-sampled-bloom
# ----------------------------------------------------------------------


class MemWorkload(PacketWorkload):
    """A pipeline over in-memory columns, one child per repetition."""

    kind = ""

    def config(self, sizes: Sizes) -> dict:
        raise NotImplementedError

    def facts_of(self, answer):
        return answer

    def setup(self, rng, sizes, workdir):
        networks, lengths = inputs.slash24_flows(rng, sizes.mem_flows)
        trace = inputs.make_trace(
            rng,
            sizes.mem_packets,
            networks,
            lengths,
            sizes.mem_slots,
            sizes.mem_zipf,
        )
        columns = (trace.timestamps, trace.destinations, trace.sizes)
        for name, column in zip(COLUMNS, columns):
            np.save(workdir / f"{name}.npy", column)
        config = self.config(sizes)
        (workdir / f"{self.kind}.json").write_text(json.dumps(config))
        rate = config.get("sample_rate", 1)
        # which packets a probabilistic 1-in-N sampler seeded with 0
        # keeps is a pure function of the packet count; the reference
        # draws the same stream itself rather than asking the sampler
        kept = np.random.default_rng(0).random(trace.num_packets) < 1.0 / rate
        sampled_sizes = np.where(kept, trace.sizes * rate, 0)
        return PacketInputs(
            trace=trace,
            reference=inputs.reference_entries(trace),
            command=[
                sys.executable,
                "-m",
                "perfbench.child",
                str(workdir),
                self.kind,
            ],
            offered=trace.num_packets * config["passes"],
            expect_packets=int(kept.sum()),
            expect_bytes=int(sampled_sizes.sum()),
            slot_arrivals=inputs.slot_arrivals(trace, sampled_sizes),
            workdir=workdir,
            config=config,
            columns=columns,
        )

    def extra_checks(self, made, facts, checks):
        checks.check("passes_agree", bool(facts.get("passes_agree")))
        checks.check(
            "packets_seen",
            facts.get("packets_seen") == made.trace.num_packets,
        )
        _slots_conserved(facts["slot_bytes"], made.slot_arrivals, checks)

    def replay(self, log: list, tracer: Tracer, made) -> dict:
        """The layer replay this workload owns."""
        raise NotImplementedError

    def traced_pass(self, made, tracer, checks):
        log: list = []
        run, wall = _timed_pipeline(
            mem_spec(made.config, made.columns),
            FixedLengthResolver(made.config["prefix_length"]),
            tracer,
            backend_log=log,
        )
        _slots_conserved(run.slot_bytes, made.slot_arrivals, checks)
        counts = {} if tracer is None else self.replay(log, tracer, made)
        counts["envelope.bytes"] = len(run.envelope_json)
        counts["sampling.kept_share"] = run.kept_share
        return wall, counts


def _batch_groups(log: list):
    """Per logged ``accumulate``: unique keys, weights, arrival order.

    The grouping the array backend does before it calls its table —
    done here untimed, so the replay times the table alone. ``None``
    marks a slot close.
    """
    for call in log:
        if call is None:
            yield None
            continue
        keys, sizes = call
        unique, first, inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
        weights = np.bincount(inverse, weights=sizes).astype(np.float64)
        yield unique, weights, np.argsort(first)


class MemSketchChurn(MemWorkload):
    name = "mem-sketch-churn"
    kind = "churn"

    def config(self, sizes):
        return {
            "backend": "space-saving",
            "capacity": sizes.mem_capacity,
            "prefix_length": 24,
            "passes": sizes.churn_passes,
        }

    def replay(self, log, tracer, made):
        """The logged batches into a bare ``ArraySpaceSaving``; then
        the same trace once through a two-shard split."""
        table = ArraySpaceSaving(made.config["capacity"])
        offered = tracked = evictions = 0
        for group in _batch_groups(log):
            if group is None:
                continue
            unique, weights, order = group
            with tracer.span("array_tables.update_batch", rows=unique.size):
                update = table.update_batch(unique, weights, order)
            offered += unique.size
            tracked += int((update.slots >= 0).sum())
            evictions += update.evicted.size
        sharded = Tracer()
        run_pipeline(
            mem_spec(dict(made.config, shards=2), made.columns),
            FixedLengthResolver(made.config["prefix_length"]),
            sharded,
        )
        tracer.stages["sharded.accumulate"] = sharded.stages[
            "sharded.accumulate"
        ]
        split = (
            sharded.stages["sharded.accumulate"]["seconds"]
            + sharded.stages["backends.accumulate"]["seconds"]
        )
        return {
            "array_tables.tracked_share": tracked / offered,
            "array_tables.evictions": evictions,
            "sharded.overhead_ratio": split
            / tracer.stages["backends.accumulate"]["seconds"],
        }


class MemSampledBloom(MemWorkload):
    name = "mem-sampled-bloom"
    kind = "sampled"

    def config(self, sizes):
        return {
            "backend": "space-saving",
            "capacity": sizes.mem_capacity,
            "admission": "bloom",
            "sample_rate": sizes.sample_rate,
            "prefix_length": 24,
            "passes": sizes.sampled_passes,
        }

    def replay(self, log, tracer, made):
        """The sampled stream's batches into a Bloom-gated table."""
        table = gated_table(
            ArraySpaceSaving(made.config["capacity"]),
            threshold_bytes=DEFAULT_ADMISSION_THRESHOLD,
        )
        offered = 0.0
        for group in _batch_groups(log):
            if group is None:
                table.end_slot()
                continue
            unique, weights, order = group
            with tracer.span("bloom.update_batch", rows=unique.size):
                table.update_batch(unique, weights, order)
            offered += float(weights.sum())
        return {"bloom.rejected_share": table.rejected_weight / offered}


# ----------------------------------------------------------------------
# fleet-2w
# ----------------------------------------------------------------------


class Fleet2w(PacketWorkload):
    name = "fleet-2w"

    def _flags(self, sizes: Sizes, split: str) -> list[str]:
        return [
            "--prefix-length",
            "24",
            "--slot-seconds",
            str(int(inputs.SLOT_SECONDS)),
            "--backend",
            "space-saving",
            "--capacity",
            str(sizes.fleet_capacity),
            split,
            str(sizes.fleet_workers),
            "--json",
        ]

    def setup(self, rng, sizes, workdir):
        networks, lengths = inputs.slash24_flows(rng, sizes.fleet_flows)
        trace = inputs.make_trace(
            rng,
            sizes.fleet_packets,
            networks,
            lengths,
            sizes.fleet_slots,
            sizes.fleet_zipf,
        )
        pcap = str(workdir / "trace2.pcap")
        inputs.write_pcap(pcap, trace)
        return PacketInputs(
            trace=trace,
            reference=inputs.reference_entries(trace),
            command=repro_command(
                "stream", pcap, *self._flags(sizes, "--workers")
            ),
            offered=trace.num_packets,
            expect_packets=trace.num_packets,
            expect_bytes=trace.total_bytes,
            slot_arrivals=inputs.slot_arrivals(trace),
            workdir=workdir,
            config={
                "twin": repro_command(
                    "stream", pcap, *self._flags(sizes, "--shards")
                ),
                "capacity": sizes.fleet_capacity,
                "workers": sizes.fleet_workers,
            },
        )

    def repetition(self, made, checks):
        before = _ring_segments()
        rep = super().repetition(made, checks)
        leaked = _ring_segments() - before
        checks.check("no_ring_segments", not leaked, ", ".join(leaked))
        return rep

    def after(self, made, last, checks):
        """The fleet must name the elephants its in-process twin does."""
        _, twin = run_child(made.config["twin"])
        same = (
            twin is not None
            and last.envelope is not None
            and prefix_sets(twin["elephants_by_slot"])
            == prefix_sets(last.envelope["elephants_by_slot"])
        )
        checks.check("equals_shards_twin", same)

    def _spec(self, made, **split) -> PipelineSpec:
        return PipelineSpec(
            backend="space-saving",
            capacity=made.config["capacity"],
            source=SourceSpec.from_path(str(made.workdir / "trace2.pcap")),
            **split,
        )

    def trace(self, made, seconds, sizes):
        stages, counts, checks = super().trace(made, seconds, sizes)
        counts["runner.speedup_vs_inproc"] = (
            counts["harness.plain_wall_s"] / counts.pop("fleet_wall_s")
        )
        return stages, counts, checks

    def traced_pass(self, made, tracer, checks):
        """The ``--shards`` twin in process; then, when tracing, the
        real fleet through ``parallel_ingest`` and the ring replay."""
        workers = made.config["workers"]
        run, wall = _timed_pipeline(
            self._spec(made, shards=workers),
            FixedLengthResolver(24),
            tracer,
            keep_frames=True,
        )
        _slots_conserved(run.slot_bytes, made.slot_arrivals, checks)
        counts = {"envelope.bytes": len(run.envelope_json)}
        if tracer is None:
            return wall, counts
        segments = _ring_segments()
        started = time.perf_counter()
        with tracer.span("runner.parallel_ingest", rows=made.offered):
            ingest = parallel_ingest(
                None,
                FixedLengthResolver(24),
                slot_seconds=inputs.SLOT_SECONDS,
                spec=self._spec(made, workers=workers),
            )
        with tracer.span("runner.collector", rows=ingest.num_slots):
            entries = [
                elephant_entries(event.frame, event.verdict)
                for event in ingest.collector().events()
            ]
        counts["fleet_wall_s"] = time.perf_counter() - started
        checks.check(
            "fleet_equals_twin",
            prefix_sets(entries)
            == prefix_sets(run.envelope["elephants_by_slot"]),
        )
        checks.check("no_ring_segments", _ring_segments() <= segments)
        counts["runner.cpu_count"] = os.cpu_count() or 1
        wire_bytes = 0
        cells: dict[float, list] = {}
        for worker_run in ingest.runs:
            for summary in worker_run:
                wire_bytes += wire_round_trip(summary, tracer)
                cells.setdefault(summary.start, []).append(summary)
        counts["summary.wire_bytes"] = wire_bytes
        for start in sorted(cells):
            rows = sum(summary.num_entries for summary in cells[start])
            with tracer.span("merge.merge_summaries", rows=rows):
                merge_summaries(cells[start])
        counts["shm_ring.bytes"] = _ring_hop(made, workers, tracer)
        return wall, counts


def _ring_hop(made: PacketInputs, workers: int, tracer: Tracer) -> int:
    """The fleet's dealt column batches through writer → consumer.

    One process, plain queues: each sub-batch is packed into a ring
    slot and unpacked again, which is the copy the transport adds
    between the reader and a worker. Returns the bytes moved.
    """
    source = SourceSpec.from_path(str(made.workdir / "trace2.pcap")).open()
    resolver = FixedLengthResolver(24)
    rings = [ShmRing.create(4, source.chunk_packets) for _ in range(workers)]
    empty = np.empty(0, dtype=np.int64)
    moved = 0
    try:
        lanes = []
        for ring in rings:
            free, data = queue.Queue(), queue.Queue()
            writer = RingWriter(ring, free, data)
            lanes.append((writer, RingConsumer(ring, free, data).batches()))
        for batch in source.batches():
            keys = resolver.lookup(batch.destinations)
            homes = shard_of(keys, workers)
            for home, (writer, consumer) in enumerate(lanes):
                mine = homes == home
                if not mine.any():
                    continue
                columns = (
                    batch.timestamps[mine],
                    keys[mine],
                    batch.wire_bytes[mine],
                )
                with tracer.span("shm_ring.hop", rows=columns[0].size):
                    writer.send(*columns, empty, empty)
                    received = next(consumer)
                    moved += sum(column.nbytes for column in received[:3])
                del received
        for writer, consumer in lanes:
            writer.close()
            for _ in consumer:
                pass
    finally:
        for ring in rings:
            ring.destroy()
    return moved
