"""Time discretisation and flow records.

The paper discretises time into slots of length ``T`` (5 minutes by
default) and works with the average bandwidth of each prefix-flow per
slot. :class:`TimeAxis` owns that discretisation; :class:`FlowRecord`
is the per-flow byte/packet ledger of the per-packet reference
aggregator (:class:`~repro.flows.aggregate.FlowAggregator`) — the
streaming pipeline counts bytes per slot and keeps no such record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ClassificationError
from repro.net.prefix import Prefix

#: The paper's default measurement interval (seconds).
DEFAULT_SLOT_SECONDS = 300.0


@dataclass(frozen=True)
class TimeAxis:
    """A contiguous sequence of measurement slots.

    ``start`` is the epoch timestamp of slot 0; slot ``k`` covers
    ``[start + k * slot_seconds, start + (k + 1) * slot_seconds)``.
    """

    start: float
    slot_seconds: float
    num_slots: int

    def __post_init__(self) -> None:
        if self.slot_seconds <= 0:
            raise ClassificationError("slot_seconds must be positive")
        if self.num_slots <= 0:
            raise ClassificationError("num_slots must be positive")

    @property
    def end(self) -> float:
        """Timestamp just past the final slot."""
        return self.start + self.num_slots * self.slot_seconds

    @property
    def duration(self) -> float:
        """Total covered time in seconds."""
        return self.num_slots * self.slot_seconds

    def slot_of(self, timestamp: float) -> int:
        """Slot index containing ``timestamp``; raises when outside."""
        if not self.start <= timestamp < self.end:
            raise ClassificationError(
                f"timestamp {timestamp} outside axis "
                f"[{self.start}, {self.end})"
            )
        return int((timestamp - self.start) // self.slot_seconds)

    def slot_start(self, slot: int) -> float:
        """Timestamp at which ``slot`` begins."""
        self._check_slot(slot)
        return self.start + slot * self.slot_seconds

    def slot_times(self) -> np.ndarray:
        """Start timestamps of every slot."""
        return self.start + np.arange(self.num_slots) * self.slot_seconds

    def hours_since_start(self) -> np.ndarray:
        """Slot start offsets in hours, for plotting."""
        return np.arange(self.num_slots) * self.slot_seconds / 3600.0

    def window(self, first_slot: int, num_slots: int) -> "TimeAxis":
        """A sub-axis of ``num_slots`` slots starting at ``first_slot``."""
        self._check_slot(first_slot)
        if first_slot + num_slots > self.num_slots:
            raise ClassificationError("window extends past the axis")
        return TimeAxis(
            self.slot_start(first_slot), self.slot_seconds, num_slots
        )

    def rebin(self, factor: int) -> "TimeAxis":
        """A coarser axis merging ``factor`` slots into one.

        Trailing slots that do not fill a coarse slot are dropped,
        mirroring :meth:`RateMatrix.rebin`.
        """
        if factor < 1:
            raise ClassificationError("rebin factor must be >= 1")
        coarse_slots = self.num_slots // factor
        if coarse_slots == 0:
            raise ClassificationError("rebin factor exceeds axis length")
        return TimeAxis(
            self.start, self.slot_seconds * factor, coarse_slots
        )

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.num_slots:
            raise ClassificationError(
                f"slot {slot} outside 0..{self.num_slots - 1}"
            )


@dataclass
class FlowRecord:
    """Byte/packet accounting for one prefix-flow, updated per packet."""

    prefix: Prefix
    bytes_total: int = 0
    packets: int = 0
    first_seen: float = field(default=np.inf)
    last_seen: float = field(default=-np.inf)

    def add_packet(self, timestamp: float, wire_bytes: int) -> None:
        """Account one packet of ``wire_bytes`` bytes at ``timestamp``."""
        if wire_bytes < 0:
            raise ClassificationError("packet size cannot be negative")
        self.bytes_total += wire_bytes
        self.packets += 1
        if timestamp < self.first_seen:
            self.first_seen = timestamp
        if timestamp > self.last_seen:
            self.last_seen = timestamp

    @property
    def mean_packet_size(self) -> float:
        """Average packet size in bytes (0 when no packets)."""
        if self.packets == 0:
            return 0.0
        return self.bytes_total / self.packets

    @property
    def active_span(self) -> float:
        """Seconds between first and last packet (0 for a single packet)."""
        if self.packets == 0:
            return 0.0
        return max(0.0, self.last_seen - self.first_seen)
