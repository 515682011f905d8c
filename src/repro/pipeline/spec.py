"""PipelineSpec: one validated description of a pipeline deployment.

Seven PRs of growth left pipeline configuration scattered across
keyword arguments — ``backend``/``capacity``/``memory_budget`` on one
layer, ``shards`` on another, ``workers``/``ring_slots`` on a third —
with the cross-field rules (shards vs workers, capacity vs budget,
exact vs sketch) re-checked ad hoc at each call site. This module
consolidates them: a :class:`PipelineSpec` is a frozen dataclass that
validates every cross-field constraint once, at construction, and it
is the only configuration the entry points (``parallel_ingest``, the
CLI) take. Components below them
(``StreamingAggregator``, ``StreamingPipeline``) take the objects a
spec builds — :meth:`PipelineSpec.build_backend`,
:meth:`PipelineSpec.open_source` — never the knobs themselves.

The spec also carries the sampling policy
(:class:`~repro.pipeline.sampling.SamplingSpec`) and the Bloom
admission knobs, so a monitor's whole ingest configuration — what it
samples, what it admits, how it bounds memory, how it parallelises —
is one value that can be validated, logged, and shipped around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.errors import ClassificationError
from repro.pipeline.backends import (
    MAX_SHARDS,
    AggregationBackend,
    capacity_for_budget,
    check_backend,
    make_backend,
    make_shard,
    parse_memory_budget,
)
from repro.pipeline.sampling import (
    UNSAMPLED,
    SamplingSpec,
)
from repro.pipeline.sources import (
    ArrayPacketSource,
    CsvPacketSource,
    PacketSource,
    PcapPacketSource,
    text_lines,
)

if TYPE_CHECKING:
    import argparse

#: Valid :attr:`SourceSpec.kind` values.
SOURCE_KINDS = ("pcap", "packet-csv", "flow-csv", "array")


@dataclass(frozen=True)
class SourceSpec:
    """One validated description of a pipeline's packet input.

    The same consolidation :class:`PipelineSpec` performed for the
    table/sampling knobs, applied to input selection: instead of each
    command sniffing paths and constructing
    :class:`~repro.pipeline.sources.PcapPacketSource` /
    :class:`~repro.pipeline.sources.CsvPacketSource` /
    :class:`~repro.flows.interchange.FlowRecordSource` ad hoc, a
    ``SourceSpec`` names the input once (``kind`` + ``path``, or
    in-memory arrays for ``kind="array"``) and :meth:`open` builds the
    source. Attach one to a spec (``PipelineSpec(source=...)``) and
    :meth:`PipelineSpec.open_source` opens it behind the spec's
    sampling front-end.

    Kinds:

    - ``pcap`` — a classic pcap capture file.
    - ``packet-csv`` — ``timestamp,destination,wire_bytes`` rows
      (:class:`~repro.pipeline.sources.CsvPacketSource`).
    - ``flow-csv`` — a floodns-shaped ``flow_info.csv`` flow-record
      export (:class:`~repro.flows.interchange.FlowRecordSource`).
    - ``array`` — in-memory parallel columns
      (:class:`~repro.pipeline.sources.ArrayPacketSource`).

    File kinds take ``path`` and nothing else; ``array`` takes the
    three columns and no path. ``chunk_packets`` bounds batch size for
    any kind (``None`` means the source default). The array columns
    are excluded from equality/hashing — two array specs are the same
    spec only if they are the same object's fields.
    """

    kind: str
    path: str | None = None
    timestamps: object = field(default=None, compare=False, repr=False)
    destinations: object = field(default=None, compare=False, repr=False)
    wire_bytes: object = field(default=None, compare=False, repr=False)
    chunk_packets: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in SOURCE_KINDS:
            raise ClassificationError(
                f"unknown source kind {self.kind!r}; expected one of "
                f"{', '.join(SOURCE_KINDS)}"
            )
        if self.chunk_packets is not None and self.chunk_packets < 1:
            raise ClassificationError("chunk_packets must be >= 1")
        arrays = (self.timestamps, self.destinations, self.wire_bytes)
        if self.kind == "array":
            if self.path is not None:
                raise ClassificationError(
                    "an array source takes columns, not a path"
                )
            if any(column is None for column in arrays):
                raise ClassificationError(
                    "an array source needs timestamps, destinations, "
                    "and wire_bytes columns"
                )
        else:
            if self.path is None:
                raise ClassificationError(
                    f"a {self.kind} source needs a path"
                )
            if any(column is not None for column in arrays):
                raise ClassificationError(
                    f"a {self.kind} source reads from its path; array "
                    "columns only apply to kind='array'"
                )

    @classmethod
    def from_path(cls, path: str) -> "SourceSpec":
        """Classify a capture path by shape.

        ``.csv`` files are sniffed by header: a ``flow_id`` header is
        a floodns flow-record export, anything else is the packet-csv
        shape. Every other extension is treated as pcap (the scanner
        validates the magic itself).
        """
        kind = "pcap"
        if path.endswith(".csv"):
            header = next(text_lines(path, "capture"), "")
            kind = (
                "flow-csv"
                if header.startswith("flow_id")
                else "packet-csv"
            )
        return cls(kind=kind, path=path)

    @classmethod
    def of_arrays(
        cls,
        timestamps,
        destinations,
        wire_bytes,
        chunk_packets: int | None = None,
    ) -> "SourceSpec":
        """An in-memory array source (tests, benches, replays)."""
        return cls(
            kind="array",
            timestamps=timestamps,
            destinations=destinations,
            wire_bytes=wire_bytes,
            chunk_packets=chunk_packets,
        )

    def open(self) -> PacketSource:
        """Build the packet source this spec describes (unsampled;
        :meth:`PipelineSpec.open_source` adds the sampling wrap)."""
        kwargs = (
            {}
            if self.chunk_packets is None
            else {"chunk_packets": self.chunk_packets}
        )
        if self.kind == "pcap":
            return PcapPacketSource(self.path, **kwargs)
        if self.kind == "packet-csv":
            return CsvPacketSource(self.path, **kwargs)
        if self.kind == "flow-csv":
            # Imported lazily: repro.flows sits below this package, so
            # the interchange module cannot be a module-level import
            # target here without risking a partial-init cycle.
            from repro.flows.interchange import FlowRecordSource

            return FlowRecordSource(self.path, **kwargs)
        return ArrayPacketSource(
            self.timestamps,
            self.destinations,
            self.wire_bytes,
            **kwargs,
        )

    def describe(self) -> dict[str, object]:
        """JSON-safe facts for result envelopes and logs."""
        facts: dict[str, object] = {"kind": self.kind}
        if self.path is not None:
            facts["path"] = self.path
        if self.kind == "array":
            facts["num_packets"] = int(
                getattr(self.timestamps, "size", None)
                or len(self.timestamps)
            )
        return facts


@dataclass(frozen=True)
class PipelineSpec:
    """Everything the ingest pipeline needs to configure itself.

    Cross-field rules enforced here (those about the table itself by
    :func:`~repro.pipeline.backends.check_backend`, which a direct
    ``make_backend`` call runs too):

    - ``capacity`` and ``memory_budget`` are alternatives; give one.
    - the exact backend takes neither; sketch backends need one.
    - ``shards`` (one process, N tables) and ``workers`` (N processes)
      are alternatives; give one.
    - an admission gate fronts a sketch backend, and
      ``admission_threshold`` needs one to set.

    ``memory_budget`` takes bytes or a ``"512k"``-style string; the
    budget → capacity split accounts for however many partitions the
    deployment has (shards or workers), and is resolved at
    construction, so a malformed or too-small budget fails here rather
    than at first use. ``ring_slots`` is the shared-memory ring depth
    per worker; ``None`` means the transport default. ``seed`` seeds
    the Bloom admission gate's hashes (``admission="bloom"``); neither
    candidate table draws a random number.

    ``source`` optionally names the packet input (a
    :class:`SourceSpec`); :meth:`open_source` opens it behind the
    sampling front-end, so a spec can describe a deployment's whole
    ingest path end to end.
    """

    backend: str = "exact"
    capacity: int | None = None
    memory_budget: int | str | None = None
    shards: int = 1
    workers: int = 1
    ring_slots: int | None = None
    seed: int = 0
    sampling: SamplingSpec = field(default_factory=SamplingSpec)
    admission: str = "none"
    admission_threshold: float | None = None
    source: SourceSpec | None = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ClassificationError("shards must be >= 1")
        if self.workers < 1:
            raise ClassificationError("workers must be >= 1")
        if self.shards > 1 and self.workers > 1:
            raise ClassificationError(
                "--shards and --workers are alternatives: shards "
                "partition one process's flow table, workers shard "
                "across processes (each worker is one shard)"
            )
        if self.partitions > MAX_SHARDS:  # before any table or worker
            raise ClassificationError(f"at most {MAX_SHARDS} shards/workers")
        if self.ring_slots is not None and self.ring_slots < 1:
            raise ClassificationError("ring_slots must be >= 1")
        if not 0 <= self.seed < 2**63:
            raise ClassificationError(f"seed {self.seed} not in [0, 2**63)")
        if self.capacity is not None and self.memory_budget is not None:
            raise ClassificationError(
                "--capacity and --memory-budget are alternatives; "
                "give one"
            )
        # a budget is resolved here for its errors: an unparsable one,
        # or one below an entry per partition, fails construction
        # instead of the first resolved_capacity / describe() call
        check_backend(self.backend, self.resolved_capacity, self.admission)
        if self.admission_threshold is not None:
            if self.admission == "none":
                raise ClassificationError(
                    "--admission-threshold sets the Bloom gate's byte "
                    "threshold; it needs --admission bloom"
                )
            if not 0.0 <= self.admission_threshold < math.inf:
                raise ClassificationError(
                    "admission threshold must be a finite number >= 0"
                )
        if self.sampling is None:
            object.__setattr__(self, "sampling", UNSAMPLED)

    # -- derived views -------------------------------------------------

    @property
    def partitions(self) -> int:
        """Flow-table partitions the deployment runs (shards are
        in-process partitions, each worker process is one shard)."""
        return max(self.shards, self.workers)

    @property
    def budget_bytes(self) -> int | None:
        """The memory budget in bytes, parsed (``None`` when unset)."""
        if self.memory_budget is None:
            return None
        if isinstance(self.memory_budget, int):
            if self.memory_budget < 1:
                raise ClassificationError("memory budget must be positive")
            return self.memory_budget
        return parse_memory_budget(self.memory_budget)

    @property
    def resolved_capacity(self) -> int | None:
        """Tracked-flow bound after the budget → capacity split."""
        if self.capacity is not None:
            return self.capacity
        budget = self.budget_bytes
        if budget is None:
            return None
        return capacity_for_budget(
            self.backend,
            budget,
            shards=self.partitions,
            admission=self.admission,
        )

    @property
    def resolved_admission_threshold(self) -> float:
        """Bytes the admission gate asks of a flow (default applied)."""
        if self.admission_threshold is None:
            from repro.sketches.bloom import DEFAULT_ADMISSION_THRESHOLD

            return DEFAULT_ADMISSION_THRESHOLD
        return self.admission_threshold

    def replace(self, **changes) -> "PipelineSpec":
        """A copy with fields replaced (re-validated)."""
        return replace(self, **changes)

    # -- builders ------------------------------------------------------

    def build_backend(self) -> AggregationBackend | None:
        """The single-process flow-table backend this spec describes.

        Returns ``None`` for the plain exact table (the aggregator's
        default — callers pass it straight through). Worker processes
        each build their own partition instead; see :meth:`build_shard`.
        """
        if self.backend == "exact" and self.shards == 1:
            return None
        return make_backend(
            self.backend,
            capacity=self.resolved_capacity,
            seed=self.seed,
            shards=self.shards,
            admission=self.admission,
            admission_threshold=self.resolved_admission_threshold,
        )

    def build_shard(self) -> AggregationBackend:
        """The flow table each partition of this deployment owns.

        What each worker of a ``workers=N`` fleet builds in its own
        process — the same table every shard of the ``shards=N``
        backend holds (capacity slice and Bloom gate; asserted by the
        property suite), without building the other ``N - 1``.
        """
        return make_shard(
            self.backend,
            self.partitions,
            capacity=self.resolved_capacity,
            seed=self.seed,
            admission=self.admission,
            admission_threshold=self.resolved_admission_threshold,
        )

    def wrap_source(self, source):
        """``source`` behind this spec's sampling front-end."""
        return self.sampling.wrap(source)

    def open_source(self):
        """Open :attr:`source` behind the sampling front-end.

        The one factory every entry point shares: the spec names the
        input (:class:`SourceSpec`) and the sampling policy, so a
        deployment's whole ingest path — what it reads, what it
        samples — opens from the spec alone. Raises when the spec
        carries no source; entry points that also accept an opened
        source argument (``parallel_ingest``) treat "both given" as an
        error.
        """
        if self.source is None:
            raise ClassificationError(
                "this spec names no input; construct it with "
                "source=SourceSpec(...) (e.g. SourceSpec.from_path)"
            )
        return self.wrap_source(self.source.open())

    def describe(self) -> dict[str, object]:
        """JSON-safe configuration facts for result envelopes.

        The stable, serialisable view of the spec that
        ``repro ... --json`` embeds under the envelope's ``"spec"``
        key: scalar fields verbatim, sampling flattened to its policy
        triple, the admission threshold a gated run ran with (default
        resolved), the source as its :meth:`SourceSpec.describe` facts.
        """
        facts: dict[str, object] = {
            "backend": self.backend,
            "capacity": self.resolved_capacity,
            "shards": self.shards,
            "workers": self.workers,
            "seed": self.seed,
            "sampling": {
                "rate": self.sampling.rate,
                "mode": self.sampling.mode,
                "invert": self.sampling.invert,
            },
            "admission": self.admission,
        }
        if self.admission != "none":
            facts["admission_threshold"] = self.resolved_admission_threshold
        if self.source is not None:
            facts["source"] = self.source.describe()
        return facts

    # -- CLI glue ------------------------------------------------------

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "PipelineSpec":
        """Build a spec from a namespace parsed with
        :func:`repro.cli.add_pipeline_args` (missing attributes fall
        back to the field defaults, so partial parsers work)."""
        sampling = SamplingSpec(
            rate=getattr(args, "sample_rate", 1),
            mode=getattr(args, "sample_mode", "deterministic"),
            seed=getattr(args, "sample_seed", 0),
            invert=not getattr(args, "no_invert", False),
        )
        return cls(
            backend=getattr(args, "backend", "exact"),
            capacity=getattr(args, "capacity", None),
            memory_budget=getattr(args, "memory_budget", None),
            shards=getattr(args, "shards", 1),
            workers=getattr(args, "workers", 1),
            ring_slots=getattr(args, "ring_slots", None),
            seed=getattr(args, "seed", 0),
            sampling=sampling,
            admission=getattr(args, "admission", None) or "none",
            admission_threshold=getattr(
                args, "admission_threshold", None
            ),
        )
