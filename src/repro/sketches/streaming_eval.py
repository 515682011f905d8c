"""Accuracy-vs-memory evaluation of streaming aggregation backends.

The sketch backends in :mod:`repro.pipeline.backends` trade exactness
for bounded state. This module quantifies the trade on a concrete
trace: the same packet stream runs once through the exact backend (the
reference) and once per sketch backend, and each run's per-slot
elephant sets are compared prefix-by-prefix.

Reported per backend:

- **recall / precision** — pooled over flow-slots: of the reference
  elephant verdicts, how many did the bounded run reproduce, and how
  much of what it reported was real;
- **churn** — mean fraction of the elephant set replaced between
  consecutive slots (1 − Jaccard), plus the delta against the exact
  run's own churn: a sketch that makes the paper's persistent
  elephants *look* volatile is lying about the phenomenon the paper
  measures;
- **state** — peak tracked flows (must stay ≤ capacity), emitted
  population rows, and the mean residual traffic share.

Sources are consumed once per run, so the evaluator takes *factories*:
``make_source`` builds a fresh packet source and ``make_resolver`` a
fresh resolver for every backend run.

The second half of the module asks the paper's own question of the
sketches: volume-only heavy-hitter detection — what they do — produces
volatile elephants. :func:`space_saving_per_slot` and
:func:`exact_top_k_per_slot` run a sketch (or the top-k oracle)
independently on every slot of a rate matrix and turn its winners into
an "elephant mask" of the shape the classifiers produce, so the
analysis layer compares churn and holding times on equal footing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.core.engine import EngineConfig, Feature, Scheme
from repro.core.states import HoldingTimeSummary
from repro.errors import ClassificationError
from repro.flows.matrix import RateMatrix
from repro.net.prefix import Prefix
from repro.sketches.space_saving import SpaceSaving

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
        for previous, current in zip(self.elephant_sets,
                                     self.elephant_sets[1:]):
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
COMPARISON_COLUMNS = ["backend", "capacity", "peak tracked", "rows",
                      "recall", "precision", "churn", "churn delta",
                      "residual"]


def run_backend(make_source: SourceFactory,
                make_resolver: ResolverFactory,
                slot_seconds: float,
                backend: AggregationBackend | None = None,
                scheme: Scheme = Scheme.CONSTANT_LOAD,
                feature: Feature = Feature.LATENT_HEAT,
                config: EngineConfig | None = None) -> BackendRun:
    """Stream the trace through one backend; collect elephant sets."""
    # Imported here: repro.pipeline depends on repro.sketches, so this
    # module must not pull the pipeline in at package-import time.
    from repro.pipeline.aggregator import (
        AggregatingSlotSource,
        StreamingAggregator,
    )
    from repro.pipeline.engine import StreamingPipeline
    if backend is not None and (backend.slots_closed
                                or backend.peak_tracked):
        # like the source and resolver, a backend is single-use state;
        # unlike them it arrives as an instance, so reuse is detectable
        raise ClassificationError(
            "aggregation backend instances are single-use; build a "
            "fresh one per evaluation run"
        )
    aggregator = StreamingAggregator(make_resolver(),
                                     slot_seconds=slot_seconds,
                                     backend=backend)
    pipeline = StreamingPipeline(
        AggregatingSlotSource(make_source(), aggregator),
        scheme=scheme, feature=feature, config=config,
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


def score_against(reference: BackendRun,
                  candidate: BackendRun) -> BackendComparison:
    """Pool recall/precision over flow-slots; compare churn profiles."""
    if reference.num_slots != candidate.num_slots:
        raise ClassificationError(
            f"slot count mismatch: reference {reference.num_slots}, "
            f"candidate {candidate.num_slots}"
        )
    hits = relevant = reported = 0
    for truth, approx in zip(reference.elephant_sets,
                             candidate.elephant_sets):
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


def evaluate_backends(make_source: SourceFactory,
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
    reference = run_backend(make_source, make_resolver, slot_seconds,
                            backend=None, scheme=scheme, feature=feature,
                            config=config)
    comparisons = []
    for backend in backends:
        candidate = run_backend(make_source, make_resolver, slot_seconds,
                                backend=backend, scheme=scheme,
                                feature=feature, config=config)
        comparisons.append(score_against(reference, candidate))
    return reference, comparisons


@dataclass(frozen=True)
class SketchRun:
    """Mask and bookkeeping from a per-slot sketch sweep."""

    name: str
    mask: np.ndarray
    per_slot_counts: np.ndarray

    def holding_summary(self) -> HoldingTimeSummary:
        """Holding-time statistics of the sketch's heavy-hitter sets."""
        return HoldingTimeSummary.from_mask(self.mask)


def space_saving_per_slot(matrix: RateMatrix, capacity: int,
                          top_k: int) -> SketchRun:
    """Run an independent Space-Saving per slot, keep its top-k rows.

    ``capacity`` is the sketch size; ``top_k`` how many flows per slot
    are declared heavy hitters (typically sized to match the elephant
    count of the classifier being compared against).
    """
    if top_k < 1:
        raise ClassificationError("top_k must be >= 1")
    if top_k > capacity:
        raise ClassificationError("top_k cannot exceed sketch capacity")
    mask = np.zeros((matrix.num_flows, matrix.num_slots), dtype=bool)
    counts = np.zeros(matrix.num_slots, dtype=int)
    for slot, rates in matrix.iter_slots():
        sketch: SpaceSaving[int] = SpaceSaving(capacity)
        active = np.flatnonzero(rates > 0)
        for row in active:
            sketch.update(int(row), float(rates[row]))
        winners = sketch.top_k(top_k)
        for row, _estimate in winners:
            mask[row, slot] = True
        counts[slot] = len(winners)
    return SketchRun(
        name=f"space-saving(c={capacity},k={top_k})",
        mask=mask,
        per_slot_counts=counts,
    )


def exact_top_k_per_slot(matrix: RateMatrix, top_k: int) -> SketchRun:
    """Oracle baseline: the true top-k flows of every slot.

    The upper bound on what any volume-only per-slot method can do —
    if even the oracle churns, volatility is inherent to the
    single-feature definition, which is exactly the paper's argument.
    """
    if top_k < 1:
        raise ClassificationError("top_k must be >= 1")
    mask = np.zeros((matrix.num_flows, matrix.num_slots), dtype=bool)
    for slot, rates in matrix.iter_slots():
        active = min(top_k, int((rates > 0).sum()))
        if active == 0:
            continue
        winners = np.argpartition(rates, -active)[-active:]
        mask[winners, slot] = True
    return SketchRun(
        name=f"exact-top-{top_k}",
        mask=mask,
        per_slot_counts=mask.sum(axis=0),
    )


def mask_agreement(mask_a: np.ndarray, mask_b: np.ndarray) -> float:
    """Mean per-slot Jaccard agreement between two elephant masks."""
    if mask_a.shape != mask_b.shape:
        raise ClassificationError("masks must have identical shape")
    scores = []
    for t in range(mask_a.shape[1]):
        union = int(np.logical_or(mask_a[:, t], mask_b[:, t]).sum())
        if union == 0:
            continue
        intersection = int(np.logical_and(mask_a[:, t], mask_b[:, t]).sum())
        scores.append(intersection / union)
    if not scores:
        return 1.0
    return float(np.mean(scores))
