"""Tests for the flow-table offload simulator."""

import numpy as np
import pytest

from repro.analysis.offload import (
    EVICTION_POLICIES,
    FlowTableSimulator,
    OffloadSpec,
    simulate_offload,
)
from repro.errors import ClassificationError
from repro.net.prefix import Prefix
from repro.pipeline.sources import SlotFrame

SLOT = 10.0


def _prefix(i):
    return Prefix.parse(f"10.{i}.0.0/16")


class _FakeVerdict:
    """Stands in for SlotVerdict: a fixed elephant row set."""

    def __init__(self, rows):
        self._rows = np.asarray(sorted(rows), dtype=np.int64)

    def elephants(self):
        return self._rows


class _FakeEvent:
    def __init__(self, frame, verdict):
        self.frame = frame
        self.verdict = verdict


def _frame(slot, rates, population, residual_row=None):
    return SlotFrame(
        slot=slot,
        start=slot * SLOT,
        rates=np.asarray(rates, dtype=np.float64),
        population=population,
        residual_row=residual_row,
    )


def _slot(sim, slot, rates, elephant_rows, population,
          residual_row=None, **kwargs):
    frame = _frame(slot, rates, population, residual_row)
    return sim.observe(frame, _FakeVerdict(elephant_rows), **kwargs)


class TestOffloadSpec:
    def test_validation(self):
        with pytest.raises(ClassificationError, match="table_size"):
            OffloadSpec(table_size=-1)
        with pytest.raises(ClassificationError, match="eviction"):
            OffloadSpec(table_size=4, eviction="random")
        with pytest.raises(ClassificationError, match="cooldown"):
            OffloadSpec(table_size=4, cooldown=0)
        assert OffloadSpec(table_size=0).table_size == 0

    def test_policies_constant(self):
        assert set(EVICTION_POLICIES) == {
            "lru-idle", "min-bytes", "no-evict",
        }


class TestTableDynamics:
    def test_zero_capacity_never_installs(self):
        # F = 0: the control case — verdicts arrive, nothing installs,
        # coverage stays zero, every install is rejected
        sim = FlowTableSimulator(OffloadSpec(table_size=0), SLOT)
        population = [_prefix(0), _prefix(1)]
        for slot in range(3):
            record = _slot(sim, slot, [4e5, 3e5], [0, 1], population)
            assert record.occupancy == 0
            assert record.installs == 0
            assert record.rejected == 2
        report = sim.report()
        assert report.byte_coverage == 0.0
        assert report.installs == 0

    def test_table_larger_than_population(self):
        # F >= every flow: all elephants install in slot 0 and coverage
        # from slot 1 on is total (no eviction pressure at all)
        sim = FlowTableSimulator(OffloadSpec(table_size=100), SLOT)
        population = [_prefix(0), _prefix(1), _prefix(2)]
        rates = [4e5, 3e5, 2e5]
        records = [
            _slot(sim, slot, rates, [0, 1, 2], population)
            for slot in range(4)
        ]
        assert records[0].covered_bytes == 0.0  # table was empty
        for record in records[1:]:
            assert record.coverage == pytest.approx(1.0)
            assert record.installs == 0
        assert records[0].installs == 3
        assert sim.report().evictions == 0
        assert sim.report().rejected == 0

    def test_coverage_measured_at_slot_entry(self):
        sim = FlowTableSimulator(OffloadSpec(table_size=4), SLOT)
        population = [_prefix(0), _prefix(1)]
        first = _slot(sim, 0, [4e5, 1e3], [0], population)
        assert first.covered_bytes == 0.0
        second = _slot(sim, 1, [4e5, 1e3], [0], population)
        # only flow 0's bytes are covered; totals include flow 1
        assert second.covered_bytes == pytest.approx(4e5 * SLOT / 8)
        assert second.total_bytes == pytest.approx(
            (4e5 + 1e3) * SLOT / 8
        )

    def test_residual_row_never_installs_but_counts_in_total(self):
        sim = FlowTableSimulator(OffloadSpec(table_size=4), SLOT)
        population = [Prefix.parse("0.0.0.0/0"), _prefix(1)]
        record = _slot(
            sim, 0, [5e5, 4e5], [0, 1], population, residual_row=0
        )
        assert record.installs == 1  # only the real flow
        assert set(sim.rules) == {_prefix(1)}
        assert record.total_bytes == pytest.approx(9e5 * SLOT / 8)

    def test_default_route_elephant_installs_with_its_row(self):
        # the residual label and a real default route read alike: the
        # rule keeps the row the verdict named, not the first match
        sim = FlowTableSimulator(OffloadSpec(table_size=4), SLOT)
        default = Prefix.parse("0.0.0.0/0")
        population = [default, _prefix(1), default]
        record = _slot(
            sim, 0, [1e5, 4e5, 5e5], [1, 2], population, residual_row=0
        )
        assert record.installs == 2
        assert sim.rules[_prefix(1)].row == 1
        assert sim.rules[default].row == 2
        assert sim.rules[default].slot_bytes == pytest.approx(5e5 * SLOT / 8)

    def test_cooldown_expiry_and_reinstall_churn(self):
        # a rule unrefreshed for `cooldown` slots expires; the flow
        # going elephant again re-installs — churn counts all of it
        sim = FlowTableSimulator(
            OffloadSpec(table_size=4, cooldown=2), SLOT
        )
        population = [_prefix(0)]
        _slot(sim, 0, [4e5], [0], population)  # install
        r1 = _slot(sim, 1, [1e3], [], population)  # idle 1
        assert r1.expirations == 0 and sim.occupancy == 1
        r2 = _slot(sim, 2, [1e3], [], population)  # idle 2 -> expire
        assert r2.expirations == 1 and sim.occupancy == 0
        r3 = _slot(sim, 3, [4e5], [0], population)  # back -> reinstall
        assert r3.installs == 1 and sim.occupancy == 1
        assert r3.churn == 1
        report = sim.report()
        assert report.installs == 2
        assert report.expirations == 1

    def test_no_evict_rejects_when_full(self):
        sim = FlowTableSimulator(
            OffloadSpec(table_size=1, eviction="no-evict", cooldown=9),
            SLOT,
        )
        population = [_prefix(0), _prefix(1)]
        _slot(sim, 0, [4e5, 1e3], [0], population)
        record = _slot(sim, 1, [1e3, 4e5], [1], population)
        assert record.rejected == 1
        assert record.evictions == 0
        assert set(sim.rules) == {_prefix(0)}

    def test_lru_idle_evicts_longest_idle(self):
        sim = FlowTableSimulator(
            OffloadSpec(table_size=2, eviction="lru-idle", cooldown=9),
            SLOT,
        )
        population = [_prefix(0), _prefix(1), _prefix(2)]
        _slot(sim, 0, [4e5, 4e5, 1e3], [0, 1], population)
        # flow 0 stays elephant, flow 1 goes idle
        _slot(sim, 1, [4e5, 1e3, 1e3], [0], population)
        # flow 2 arrives; the idle rule (flow 1) is the victim
        record = _slot(sim, 2, [4e5, 1e3, 4e5], [0, 2], population)
        assert record.evictions == 1
        assert set(sim.rules) == {_prefix(0), _prefix(2)}

    def test_lru_tie_breaks_to_fewest_bytes(self):
        sim = FlowTableSimulator(
            OffloadSpec(table_size=2, eviction="lru-idle", cooldown=9),
            SLOT,
        )
        population = [_prefix(0), _prefix(1), _prefix(2)]
        _slot(sim, 0, [4e5, 4e5, 1e3], [0, 1], population)
        # both incumbents idle one slot; flow 1 carries fewer bytes
        record = _slot(
            sim, 1, [3e5, 1e3, 4e5], [2], population
        )
        assert record.evictions == 1
        assert _prefix(1) not in sim.rules
        assert _prefix(0) in sim.rules

    def test_min_bytes_evicts_smallest_flow(self):
        sim = FlowTableSimulator(
            OffloadSpec(table_size=2, eviction="min-bytes", cooldown=9),
            SLOT,
        )
        population = [_prefix(0), _prefix(1), _prefix(2)]
        _slot(sim, 0, [4e5, 3e5, 1e3], [0, 1], population)
        # flow 1 still carries more bytes than flow 0 this slot, but
        # neither is refreshed; min-bytes picks the lighter one now
        record = _slot(sim, 1, [1e3, 3e5, 4e5], [2], population)
        assert record.evictions == 1
        assert _prefix(0) not in sim.rules
        assert set(sim.rules) == {_prefix(1), _prefix(2)}

    def test_refreshed_rules_are_never_victims(self):
        sim = FlowTableSimulator(
            OffloadSpec(table_size=2, eviction="lru-idle", cooldown=9),
            SLOT,
        )
        population = [_prefix(0), _prefix(1), _prefix(2)]
        _slot(sim, 0, [4e5, 4e5, 1e3], [0, 1], population)
        # all three elephant, table full of current elephants: the
        # newcomer is rejected, not a refreshed incumbent evicted
        record = _slot(sim, 1, [4e5, 4e5, 4e5], [0, 1, 2], population)
        assert record.rejected == 1
        assert record.evictions == 0
        assert set(sim.rules) == {_prefix(0), _prefix(1)}

    def test_truth_override_scores_against_exact_bytes(self):
        sim = FlowTableSimulator(OffloadSpec(table_size=4), SLOT)
        population = [_prefix(0)]
        _slot(sim, 0, [4e5], [0], population)
        record = _slot(
            sim, 1, [4e5], [0], population,
            truth_bytes={_prefix(0): 1000.0},
            truth_total=4000.0,
        )
        assert record.covered_bytes == pytest.approx(1000.0)
        assert record.total_bytes == pytest.approx(4000.0)
        assert record.coverage == pytest.approx(0.25)

    def test_slot_seconds_validated(self):
        with pytest.raises(ClassificationError, match="slot_seconds"):
            FlowTableSimulator(OffloadSpec(table_size=1), 0.0)


class TestReport:
    def test_pooled_coverage_and_series(self):
        sim = FlowTableSimulator(OffloadSpec(table_size=4), SLOT)
        population = [_prefix(0)]
        for slot in range(4):
            _slot(sim, slot, [4e5], [0], population)
        report = sim.report()
        # slot 0 contributes zero covered bytes; 3 of 4 slots covered
        assert report.byte_coverage == pytest.approx(0.75)
        assert report.num_slots == 4
        assert report.mean_occupancy == 1.0
        facts = report.as_dict()
        assert facts["occupancy_by_slot"] == [1, 1, 1, 1]
        assert facts["coverage_by_slot"] == [0.0, 1.0, 1.0, 1.0]
        assert facts["churn_by_slot"] == [1, 0, 0, 0]
        assert facts["table_size"] == 4

    def test_empty_report(self):
        report = FlowTableSimulator(
            OffloadSpec(table_size=4), SLOT
        ).report()
        assert report.num_slots == 0
        assert report.byte_coverage == 0.0
        assert report.mean_occupancy == 0.0
        assert report.mean_churn == 0.0


class TestSimulateOffload:
    def test_drives_event_stream_with_truth(self):
        population = [_prefix(0), _prefix(1)]
        events = [
            _FakeEvent(
                _frame(slot, [4e5, 1e3], population), _FakeVerdict([0])
            )
            for slot in range(3)
        ]
        truth = {
            slot: {_prefix(0): 500.0, _prefix(1): 100.0}
            for slot in range(3)
        }
        totals = {slot: 1000.0 for slot in range(3)}
        report = simulate_offload(
            events,
            OffloadSpec(table_size=2),
            SLOT,
            truth=truth,
            truth_totals=totals,
        )
        assert report.num_slots == 3
        # slots 1..2 each cover flow 0's 500 truth bytes of 1000 total
        assert report.byte_coverage == pytest.approx(1000.0 / 3000.0)

    def test_frame_derived_without_truth(self):
        population = [_prefix(0)]
        events = [
            _FakeEvent(
                _frame(slot, [8e2], population), _FakeVerdict([0])
            )
            for slot in range(2)
        ]
        report = simulate_offload(
            events, OffloadSpec(table_size=1), SLOT
        )
        assert report.slots[1].covered_bytes == pytest.approx(
            8e2 * SLOT / 8
        )
