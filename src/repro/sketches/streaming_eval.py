"""Accuracy-vs-memory evaluation of streaming aggregation backends.

The same packet stream runs once through the exact backend (the
reference) and once per sketch backend, and each run's per-slot
elephant sets are compared prefix by prefix. Reported per backend:
recall and precision pooled over flow-slots; churn, the mean
slot-to-slot turnover of the elephant set (1 − Jaccard), with its delta
against the exact run's — a sketch that makes the paper's persistent
elephants *look* volatile misreports the phenomenon the paper
measures; and state: peak tracked flows (at most the capacity),
population rows and the mean residual traffic share.

Sources are consumed once per run, so the evaluator takes *factories*:
``make_source`` and ``make_resolver`` build a fresh packet source and
resolver for every backend run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.core.engine import EngineConfig, Feature, Scheme
from repro.errors import ClassificationError
from repro.net.prefix import Prefix

if TYPE_CHECKING:  # pipeline sits above sketches; import lazily at runtime
    from repro.pipeline.aggregator import PrefixResolver
    from repro.pipeline.backends import AggregationBackend
    from repro.pipeline.sources import PacketSource

SourceFactory = Callable[[], "PacketSource"]
ResolverFactory = Callable[[], "PrefixResolver"]


@dataclass(frozen=True)
class BackendRun:
    """One backend's pass over the trace: verdicts and state telemetry."""

    backend: str
    capacity: int | None
    elephant_sets: list[frozenset[Prefix]]
    peak_tracked: int
    population_rows: int
    mean_residual_fraction: float

    @property
    def num_slots(self) -> int:
        return len(self.elephant_sets)

    @property
    def mean_elephants(self) -> float:
        """Mean per-slot elephant count."""
        if not self.elephant_sets:
            return 0.0
        return float(np.mean([len(s) for s in self.elephant_sets]))

    @property
    def peak_elephants(self) -> int:
        """Largest per-slot elephant set."""
        if not self.elephant_sets:
            return 0
        return max(len(s) for s in self.elephant_sets)

    def churn(self) -> float:
        """Mean slot-to-slot turnover of the elephant set (1 − Jaccard)."""
        turnovers = []
        for previous, current in zip(
            self.elephant_sets, self.elephant_sets[1:]
        ):
            union = previous | current
            if not union:
                continue
            turnovers.append(1.0 - len(previous & current) / len(union))
        if not turnovers:
            return 0.0
        return float(np.mean(turnovers))


@dataclass(frozen=True)
class BackendComparison:
    """A bounded run scored against the exact reference run."""

    run: BackendRun
    recall: float
    precision: float
    churn: float
    churn_delta: float

    def as_row(self) -> list[object]:
        """Report-table row: name, sizes, accuracy, churn, coverage."""
        return [
            self.run.backend,
            self.run.capacity if self.run.capacity is not None else "-",
            self.run.peak_tracked,
            self.run.population_rows,
            f"{self.recall:.3f}",
            f"{self.precision:.3f}",
            f"{self.churn:.3f}",
            f"{self.churn_delta:+.3f}",
            f"{self.run.mean_residual_fraction:.3f}",
        ]


#: Header matching :meth:`BackendComparison.as_row`.
COMPARISON_COLUMNS = [
    "backend",
    "capacity",
    "peak tracked",
    "rows",
    "recall",
    "precision",
    "churn",
    "churn delta",
    "residual",
]


def run_backend(
    make_source: SourceFactory,
    make_resolver: ResolverFactory,
    slot_seconds: float,
    backend: AggregationBackend | None = None,
    scheme: Scheme = Scheme.CONSTANT_LOAD,
    feature: Feature = Feature.LATENT_HEAT,
    config: EngineConfig | None = None,
) -> BackendRun:
    """Stream the trace through one backend; collect elephant sets."""
    # Imported here: repro.pipeline depends on repro.sketches, so this
    # module must not pull the pipeline in at package-import time.
    from repro.pipeline.aggregator import (
        AggregatingSlotSource,
        StreamingAggregator,
    )
    from repro.pipeline.engine import StreamingPipeline

    if backend is not None and (backend.slots_closed or backend.peak_tracked):
        # like the source and resolver, a backend is single-use state;
        # unlike them it arrives as an instance, so reuse is detectable
        raise ClassificationError(
            "aggregation backend instances are single-use; build a "
            "fresh one per evaluation run"
        )
    aggregator = StreamingAggregator(
        make_resolver(), slot_seconds=slot_seconds, backend=backend
    )
    pipeline = StreamingPipeline(
        AggregatingSlotSource(make_source(), aggregator),
        scheme=scheme,
        feature=feature,
        config=config,
    )
    sets: list[frozenset[Prefix]] = []
    for event in pipeline.events():
        sets.append(frozenset(event.elephant_prefixes))
    if not sets:
        raise ClassificationError("trace produced no slots")
    series = pipeline.series()
    used = aggregator.backend
    return BackendRun(
        backend=used.name,
        capacity=getattr(used, "capacity", None),
        elephant_sets=sets,
        peak_tracked=used.peak_tracked,
        population_rows=used.num_rows,
        mean_residual_fraction=series.mean_residual_fraction,
    )


def score_against(
    reference: BackendRun, candidate: BackendRun
) -> BackendComparison:
    """Pool recall/precision over flow-slots; compare churn profiles."""
    if reference.num_slots != candidate.num_slots:
        raise ClassificationError(
            f"slot count mismatch: reference {reference.num_slots}, "
            f"candidate {candidate.num_slots}"
        )
    hits = relevant = reported = 0
    for truth, approx in zip(reference.elephant_sets, candidate.elephant_sets):
        hits += len(truth & approx)
        relevant += len(truth)
        reported += len(approx)
    recall = hits / relevant if relevant else 1.0
    precision = hits / reported if reported else 1.0
    churn = candidate.churn()
    return BackendComparison(
        run=candidate,
        recall=recall,
        precision=precision,
        churn=churn,
        churn_delta=churn - reference.churn(),
    )


def evaluate_backends(
    make_source: SourceFactory,
    make_resolver: ResolverFactory,
    slot_seconds: float,
    backends: Sequence[AggregationBackend],
    scheme: Scheme = Scheme.CONSTANT_LOAD,
    feature: Feature = Feature.LATENT_HEAT,
    config: EngineConfig | None = None,
) -> tuple[BackendRun, list[BackendComparison]]:
    """Score each bounded backend against the exact reference run.

    Returns the exact run (whose elephant statistics size the "true"
    elephant population — the anchor for choosing capacities) and one
    comparison per backend, in the order given.
    """
    reference = run_backend(
        make_source,
        make_resolver,
        slot_seconds,
        backend=None,
        scheme=scheme,
        feature=feature,
        config=config,
    )
    comparisons = []
    for backend in backends:
        candidate = run_backend(
            make_source,
            make_resolver,
            slot_seconds,
            backend=backend,
            scheme=scheme,
            feature=feature,
            config=config,
        )
        comparisons.append(score_against(reference, candidate))
    return reference, comparisons

