"""Time discretisation.

The paper discretises time into slots of length ``T`` (5 minutes by
default) and works with the average bandwidth of each prefix-flow per
slot. :class:`TimeAxis` owns that discretisation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ClassificationError

#: The paper's default measurement interval (seconds).
DEFAULT_SLOT_SECONDS = 300.0
#: The widest step, in slots, that gap filling bridges — every slot of
#: it is emitted or sealed as an empty slot — whether between covered
#: cells of a merge or between packets of a stream; 4096 slots is 2.8
#: days of 60 s slots.
MAX_GAP_CELLS = 1 << 12


@dataclass(frozen=True)
class TimeAxis:
    """A contiguous sequence of measurement slots.

    ``start`` is the epoch timestamp of slot 0; slot ``k`` covers
    ``[start + k * slot_seconds, start + (k + 1) * slot_seconds)``; both
    are finite, or every slot time and rate would be NaN or infinite.
    """

    start: float
    slot_seconds: float
    num_slots: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.start):
            raise ClassificationError("start must be finite")
        if not 0 < self.slot_seconds < math.inf:
            raise ClassificationError("slot_seconds must be finite and > 0")
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
