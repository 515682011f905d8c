"""Flow-table offload evaluation: verdicts → rule-table dynamics.

The classifier's downstream purpose is deciding which flows deserve
dedicated forwarding state — a TCAM rule, an offloaded fast-path
entry. The SDN literature evaluates exactly that trade-off
("Boundaries of Flow Table Usage Reduction Algorithms Based on
Elephant Flow Detection", PAPERS.md): given a rule table of size F,
how much traffic do elephant-driven rules cover, and how much rule
churn does keeping them current cost?

:class:`FlowTableSimulator` replays the pipeline's online per-slot
verdicts against such a table:

- a flow gets a rule when it is classified elephant, subject to the
  table's capacity and eviction policy (``lru-idle``, ``min-bytes``,
  or ``no-evict``);
- an installed rule is *refreshed* every slot its flow is classified
  elephant again, and expires after ``cooldown`` consecutive slots
  without a refresh (the latent-heat analogue: state outlives the
  instantaneous verdict, but not indefinitely);
- coverage is measured at slot *entry* — a rule only covers traffic
  in slots after the one that triggered its installation, exactly as
  a real table programmed from the previous slot's verdicts would —
  against the ground-truth per-slot byte matrix when one is supplied
  (sketch-backend runs are scored against exact bytes, not their own
  estimates).

Per-slot occupancy, byte coverage, and install/evict/expire churn land
in :class:`OffloadSlot` rows collected by :class:`OffloadReport`;
:func:`simulate_offload` drives a whole event stream through one
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.streaming import SlotVerdict
from repro.errors import ClassificationError
from repro.net.prefix import Prefix
from repro.pipeline.sources import SlotFrame

#: Valid :attr:`OffloadSpec.eviction` policies.
EVICTION_POLICIES = ("lru-idle", "min-bytes", "no-evict")

#: Default slots a rule survives without an elephant refresh.
DEFAULT_COOLDOWN_SLOTS = 2


@dataclass(frozen=True)
class OffloadSpec:
    """The rule table being simulated.

    ``table_size`` is F, the hard rule capacity (0 is legal: nothing
    ever installs, the control case). ``eviction`` picks the victim
    when an elephant wants a rule and the table is full:

    - ``lru-idle`` — the rule idle longest (most slots since its last
      elephant refresh); ties break to the fewer bytes this slot,
      then the lowest row.
    - ``min-bytes`` — the rule carrying the fewest bytes this slot;
      ties break to the most idle, then the lowest row.
    - ``no-evict`` — never evict; the install is rejected instead.

    Rules refreshed in the current slot are never victims. ``cooldown``
    is the expiry horizon: a rule unrefreshed that many consecutive
    slots is removed even when the table has room.
    """

    table_size: int
    eviction: str = "lru-idle"
    cooldown: int = DEFAULT_COOLDOWN_SLOTS

    def __post_init__(self) -> None:
        if self.table_size < 0:
            raise ClassificationError("table_size must be >= 0")
        if self.eviction not in EVICTION_POLICIES:
            raise ClassificationError(
                f"unknown eviction policy {self.eviction!r}; expected "
                f"one of {', '.join(EVICTION_POLICIES)}"
            )
        if self.cooldown < 1:
            raise ClassificationError("cooldown must be >= 1")


@dataclass
class _Rule:
    """Table state for one installed prefix."""

    row: int
    idle_slots: int = 0
    slot_bytes: float = 0.0


@dataclass(frozen=True)
class OffloadSlot:
    """One slot's table dynamics.

    ``covered_bytes`` / ``total_bytes`` are measured with the table as
    it stood when the slot *began*; ``occupancy`` is the rule count
    after this slot's installs, evictions, and expiries. ``rejected``
    counts installs refused under ``no-evict`` (or any policy when
    every incumbent is itself a current elephant).
    """

    slot: int
    occupancy: int
    covered_bytes: float
    total_bytes: float
    installs: int
    evictions: int
    expirations: int
    rejected: int

    @property
    def coverage(self) -> float:
        """Fraction of this slot's bytes matched by pre-installed
        rules."""
        if self.total_bytes <= 0:
            return 0.0
        return self.covered_bytes / self.total_bytes

    @property
    def churn(self) -> int:
        """Rule table writes this slot (installs + removals)."""
        return self.installs + self.evictions + self.expirations


class FlowTableSimulator:
    """Replay per-slot verdicts against a bounded rule table.

    Call :meth:`observe` once per classified slot, in slot order, with
    the frame/verdict pair the pipeline emitted. ``truth_bytes`` (a
    ``prefix → bytes`` map for the slot) and ``truth_total`` override
    the byte accounting — pass them when the pipeline ran on a sketch
    backend and coverage should be scored against exact traffic. The
    residual accounting row is never installable and its mass counts
    only toward the total (it is traffic the table could not have
    matched).
    """

    def __init__(self, spec: OffloadSpec, slot_seconds: float) -> None:
        if slot_seconds <= 0:
            raise ClassificationError("slot_seconds must be positive")
        self.spec = spec
        self.slot_seconds = slot_seconds
        self.rules: dict[Prefix, _Rule] = {}
        self.slots: list[OffloadSlot] = []
        self._installs_total = 0
        self._evictions_total = 0
        self._expirations_total = 0

    @property
    def occupancy(self) -> int:
        """Rules currently installed."""
        return len(self.rules)

    def observe(
        self,
        frame: SlotFrame,
        verdict: SlotVerdict,
        truth_bytes: dict[Prefix, float] | None = None,
        truth_total: float | None = None,
    ) -> OffloadSlot:
        """Advance the table one slot; returns that slot's record."""
        slot_bytes, total = self._slot_bytes(
            frame, truth_bytes, truth_total
        )
        covered = sum(
            slot_bytes.get(prefix, 0.0) for prefix in self.rules
        )

        # prefix → its row in this frame, as the verdict names it
        elephants = {
            frame.population[row]: row
            for row in verdict.elephants().tolist()
            if row != frame.residual_row
        }
        refreshed = set()
        for prefix, rule in self.rules.items():
            rule.slot_bytes = slot_bytes.get(prefix, 0.0)
            if prefix in elephants:
                rule.idle_slots = 0
                refreshed.add(prefix)
            else:
                rule.idle_slots += 1

        expirations = 0
        for prefix in [
            p
            for p, rule in self.rules.items()
            if rule.idle_slots >= self.spec.cooldown
        ]:
            del self.rules[prefix]
            expirations += 1

        installs = evictions = rejected = 0
        for prefix in sorted(
            elephants.keys() - self.rules, key=elephants.get
        ):
            if len(self.rules) >= self.spec.table_size:
                victim = self._pick_victim(refreshed)
                if victim is None:
                    rejected += 1
                    continue
                del self.rules[victim]
                evictions += 1
            self.rules[prefix] = _Rule(
                row=elephants[prefix],
                slot_bytes=slot_bytes.get(prefix, 0.0),
            )
            refreshed.add(prefix)
            installs += 1

        self._installs_total += installs
        self._evictions_total += evictions
        self._expirations_total += expirations
        record = OffloadSlot(
            slot=frame.slot,
            occupancy=len(self.rules),
            covered_bytes=covered,
            total_bytes=total,
            installs=installs,
            evictions=evictions,
            expirations=expirations,
            rejected=rejected,
        )
        self.slots.append(record)
        return record

    def report(self) -> "OffloadReport":
        """The run-level summary over the slots observed so far."""
        return OffloadReport(
            spec=self.spec,
            slots=list(self.slots),
            installs=self._installs_total,
            evictions=self._evictions_total,
            expirations=self._expirations_total,
        )

    # -- internals -----------------------------------------------------

    def _slot_bytes(
        self,
        frame: SlotFrame,
        truth_bytes: dict[Prefix, float] | None,
        truth_total: float | None,
    ) -> tuple[dict[Prefix, float], float]:
        if truth_bytes is not None:
            total = (
                truth_total
                if truth_total is not None
                else float(sum(truth_bytes.values()))
            )
            return truth_bytes, total
        scale = self.slot_seconds / 8.0
        volumes: dict[Prefix, float] = {}
        total = float(frame.rates.sum()) * scale
        for row in np.flatnonzero(frame.rates > 0.0).tolist():
            if row == frame.residual_row:
                continue
            volumes[frame.population[row]] = (
                float(frame.rates[row]) * scale
            )
        return volumes, total

    def _pick_victim(self, refreshed: set[Prefix]) -> Prefix | None:
        if self.spec.eviction == "no-evict":
            return None
        candidates = [
            (prefix, rule)
            for prefix, rule in self.rules.items()
            if prefix not in refreshed
        ]
        if not candidates:
            return None
        if self.spec.eviction == "lru-idle":
            key = lambda item: (
                -item[1].idle_slots,
                item[1].slot_bytes,
                item[1].row,
            )
        else:  # min-bytes
            key = lambda item: (
                item[1].slot_bytes,
                -item[1].idle_slots,
                item[1].row,
            )
        return min(candidates, key=key)[0]


@dataclass(frozen=True)
class OffloadReport:
    """Run-level table dynamics: the occupancy/coverage/churn triple."""

    spec: OffloadSpec
    slots: list[OffloadSlot]
    installs: int
    evictions: int
    expirations: int

    @property
    def num_slots(self) -> int:
        return len(self.slots)

    @property
    def mean_occupancy(self) -> float:
        """Mean rules installed at slot close."""
        if not self.slots:
            return 0.0
        return float(
            np.mean([record.occupancy for record in self.slots])
        )

    @property
    def byte_coverage(self) -> float:
        """Bytes matched by pre-installed rules / total bytes, pooled
        over every slot (slot 0 necessarily contributes zero matched
        bytes — the table starts empty)."""
        total = sum(record.total_bytes for record in self.slots)
        if total <= 0:
            return 0.0
        covered = sum(record.covered_bytes for record in self.slots)
        return covered / total

    @property
    def mean_churn(self) -> float:
        """Mean table writes (installs + removals) per slot."""
        if not self.slots:
            return 0.0
        return float(np.mean([record.churn for record in self.slots]))

    @property
    def rejected(self) -> int:
        """Installs refused across the run."""
        return sum(record.rejected for record in self.slots)

    def as_dict(self) -> dict[str, object]:
        """JSON-ready summary (what ``repro offload --json`` emits)."""
        return {
            "table_size": self.spec.table_size,
            "eviction": self.spec.eviction,
            "cooldown": self.spec.cooldown,
            "num_slots": self.num_slots,
            "mean_occupancy": self.mean_occupancy,
            "byte_coverage": self.byte_coverage,
            "mean_churn": self.mean_churn,
            "installs": self.installs,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "rejected": self.rejected,
            "occupancy_by_slot": [
                record.occupancy for record in self.slots
            ],
            "coverage_by_slot": [
                record.coverage for record in self.slots
            ],
            "churn_by_slot": [record.churn for record in self.slots],
        }


def simulate_offload(
    events: Iterable,
    spec: OffloadSpec,
    slot_seconds: float,
    truth: dict[int, dict[Prefix, float]] | None = None,
    truth_totals: dict[int, float] | None = None,
) -> OffloadReport:
    """Drive a stream of classified events through one rule table.

    ``events`` is any iterable of
    :class:`~repro.pipeline.engine.StreamEvent`-shaped objects (frame +
    verdict). ``truth`` optionally maps slot number → per-prefix bytes
    (with ``truth_totals`` carrying each slot's full byte total,
    residual included) so sketch-backend runs score against exact
    traffic.
    """
    simulator = FlowTableSimulator(spec, slot_seconds)
    for event in events:
        slot = event.frame.slot
        simulator.observe(
            event.frame,
            event.verdict,
            truth_bytes=None if truth is None else truth.get(slot, {}),
            truth_total=(
                None if truth_totals is None else truth_totals.get(slot)
            ),
        )
    return simulator.report()


__all__ = [
    "DEFAULT_COOLDOWN_SLOTS",
    "EVICTION_POLICIES",
    "FlowTableSimulator",
    "OffloadReport",
    "OffloadSlot",
    "OffloadSpec",
    "simulate_offload",
]
