"""Tests for the backend accuracy evaluation harness.

Includes the acceptance bar for the sketch backends themselves: on a
synthetic trace with a known elephant population, a candidate table of
``4 x`` the true elephant count must recover >= 90% of the exact run's
elephant verdicts — while never holding more than its capacity in
tracked state. The paper's thesis against volume-only heavy hitters,
that even an exact per-slot top-k churns, is checked here too.
"""

import numpy as np
import pytest

from repro.core.engine import Feature, Scheme
from repro.core.states import HoldingTimeSummary
from repro.errors import ClassificationError
from repro.net import ipv4
from repro.pipeline import make_backend
from repro.pipeline.sources import PacketBatch
from repro.routing.lpm import FixedLengthResolver
from repro.sketches.streaming_eval import (
    COMPARISON_COLUMNS,
    BackendRun,
    evaluate_backends,
    run_backend,
    score_against,
)

NUM_ELEPHANTS = 5
NUM_MICE = 80
NUM_SLOTS = 6
SLOT_SECONDS = 10.0


class ListPacketSource:
    """Replayable in-memory packet source for deterministic traces."""

    def __init__(self, batches):
        self._batches = batches

    def batches(self):
        return iter(self._batches)


@pytest.fixture(scope="module")
def trace():
    """Persistent elephants over churning mice, as columnar batches."""
    rng = np.random.default_rng(99)
    rows = []
    for slot in range(NUM_SLOTS):
        t0 = slot * SLOT_SECONDS
        for i in range(NUM_ELEPHANTS):
            for _ in range(40):
                rows.append(
                    (
                        t0 + rng.uniform(0, SLOT_SECONDS),
                        ipv4.parse_ipv4(f"10.{i}.0.1"),
                        1500,
                    )
                )
        for _ in range(60):
            mouse = int(rng.integers(0, NUM_MICE))
            rows.append(
                (
                    t0 + rng.uniform(0, SLOT_SECONDS),
                    ipv4.parse_ipv4(f"172.16.{mouse}.1"),
                    80,
                )
            )
    rows.sort(key=lambda r: r[0])
    batches = []
    for start in range(0, len(rows), 100):
        chunk = rows[start : start + 100]
        batches.append(
            PacketBatch(
                timestamps=np.array([r[0] for r in chunk]),
                destinations=np.array([r[1] for r in chunk], dtype=np.int64),
                wire_bytes=np.array([r[2] for r in chunk], dtype=np.int64),
                packets_seen=len(chunk),
            )
        )
    return batches


def factories(trace):
    return (
        lambda: ListPacketSource(trace),
        lambda: FixedLengthResolver(24),
    )


class TestAcceptance:
    @pytest.mark.parametrize("name", ["space-saving", "misra-gries"])
    def test_recall_at_four_times_true_count(self, trace, name):
        make_source, make_resolver = factories(trace)
        reference = run_backend(make_source, make_resolver, SLOT_SECONDS)
        capacity = 4 * reference.peak_elephants
        comparison = score_against(
            reference,
            run_backend(
                make_source,
                make_resolver,
                SLOT_SECONDS,
                backend=make_backend(name, capacity=capacity),
            ),
        )
        assert comparison.recall >= 0.9
        assert comparison.run.peak_tracked <= capacity

    @pytest.mark.parametrize("name", ["space-saving", "misra-gries"])
    def test_recall_holds_over_two_shards(self, trace, name):
        """The same bar with the same total capacity split over two
        hash partitions."""
        make_source, make_resolver = factories(trace)
        reference = run_backend(make_source, make_resolver, SLOT_SECONDS)
        capacity = 4 * reference.peak_elephants
        comparison = score_against(
            reference,
            run_backend(
                make_source,
                make_resolver,
                SLOT_SECONDS,
                backend=make_backend(name, capacity=capacity, shards=2),
            ),
        )
        assert comparison.recall >= 0.9
        assert comparison.run.peak_tracked <= capacity


class TestEvaluation:
    def test_exact_reference_properties(self, trace):
        make_source, make_resolver = factories(trace)
        reference = run_backend(make_source, make_resolver, SLOT_SECONDS)
        assert reference.backend == "exact"
        assert reference.capacity is None
        assert reference.num_slots == NUM_SLOTS
        assert reference.peak_elephants >= NUM_ELEPHANTS
        assert reference.mean_residual_fraction == 0.0

    def test_exact_scores_perfectly_against_itself(self, trace):
        make_source, make_resolver = factories(trace)
        reference = run_backend(make_source, make_resolver, SLOT_SECONDS)
        comparison = score_against(reference, reference)
        assert comparison.recall == 1.0
        assert comparison.precision == 1.0
        assert comparison.churn_delta == 0.0

    def test_evaluate_backends_orders_results(self, trace):
        make_source, make_resolver = factories(trace)
        reference, comparisons = evaluate_backends(
            make_source,
            make_resolver,
            SLOT_SECONDS,
            [
                make_backend("space-saving", capacity=8),
                make_backend("misra-gries", capacity=8),
            ],
        )
        backends = [c.run.backend for c in comparisons]
        assert backends == ["space-saving", "misra-gries"]
        for comparison in comparisons:
            assert 0.0 <= comparison.recall <= 1.0
            assert 0.0 <= comparison.precision <= 1.0
            row = comparison.as_row()
            assert len(row) == len(COMPARISON_COLUMNS)

    def test_tiny_capacity_pushes_traffic_to_residual(self, trace):
        make_source, make_resolver = factories(trace)
        starved = run_backend(
            make_source,
            make_resolver,
            SLOT_SECONDS,
            backend=make_backend("space-saving", capacity=2),
        )
        roomy = run_backend(
            make_source,
            make_resolver,
            SLOT_SECONDS,
            backend=make_backend("space-saving", capacity=64),
        )
        assert starved.mean_residual_fraction > roomy.mean_residual_fraction

    def test_used_backend_instance_rejected(self, trace):
        make_source, make_resolver = factories(trace)
        backend = make_backend("space-saving", capacity=8)
        run_backend(make_source, make_resolver, SLOT_SECONDS, backend=backend)
        with pytest.raises(ClassificationError, match="single-use"):
            run_backend(
                make_source, make_resolver, SLOT_SECONDS, backend=backend
            )

    def test_slot_count_mismatch_rejected(self):
        one = BackendRun("exact", None, [frozenset()], 0, 0, 0.0)
        two = BackendRun("exact", None, [frozenset(), frozenset()], 0, 0, 0.0)
        with pytest.raises(ClassificationError):
            score_against(one, two)

    def test_churn_of_stable_sets_is_zero(self):
        sets = [frozenset({1, 2})] * 4
        run = BackendRun("exact", None, sets, 0, 0, 0.0)
        assert run.churn() == 0.0
        flipping = BackendRun(
            "exact",
            None,
            [frozenset({1}), frozenset({2}), frozenset({1})],
            0,
            0,
            0.0,
        )
        assert flipping.churn() == 1.0


class TestVolatilityComparison:
    def test_per_slot_heavy_hitters_churn_more_than_latent_heat(
        self, small_grid, small_matrix
    ):
        """The paper's thesis stated against the OSS toolbox: per-slot
        top-k (even exact) holds elephant state for far shorter runs
        than the latent-heat classifier."""
        latent = small_grid[(Scheme.CONSTANT_LOAD, Feature.LATENT_HEAT)]
        k = max(1, int(latent.elephants_per_slot().mean()))
        top_k = np.zeros(small_matrix.rates.shape, dtype=bool)
        for slot, rates in small_matrix.iter_slots():
            active = min(k, int((rates > 0).sum()))
            if active:
                top_k[np.argpartition(rates, -active)[-active:], slot] = True
        oracle = HoldingTimeSummary.from_mask(top_k)
        latent_holding = latent.holding_summary().mean_holding_slots
        assert latent_holding > 1.5 * oracle.mean_holding_slots
