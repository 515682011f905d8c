"""Unit tests for TimeAxis."""

import numpy as np
import pytest

from repro.errors import ClassificationError
from repro.flows.records import TimeAxis


class TestTimeAxis:
    def test_basic_properties(self):
        axis = TimeAxis(start=1000.0, slot_seconds=300.0, num_slots=4)
        assert axis.end == 2200.0
        assert axis.duration == 1200.0

    def test_slot_of(self):
        axis = TimeAxis(0.0, 300.0, 3)
        assert axis.slot_of(0.0) == 0
        assert axis.slot_of(299.999) == 0
        assert axis.slot_of(300.0) == 1
        assert axis.slot_of(899.9) == 2

    def test_slot_of_outside_raises(self):
        axis = TimeAxis(0.0, 300.0, 3)
        with pytest.raises(ClassificationError):
            axis.slot_of(-1.0)
        with pytest.raises(ClassificationError):
            axis.slot_of(900.0)

    def test_slot_start(self):
        axis = TimeAxis(100.0, 60.0, 10)
        assert axis.slot_start(3) == 280.0
        with pytest.raises(ClassificationError):
            axis.slot_start(10)

    def test_slot_times_and_hours(self):
        axis = TimeAxis(0.0, 1800.0, 4)
        assert axis.slot_times().tolist() == [0.0, 1800.0, 3600.0, 5400.0]
        assert axis.hours_since_start().tolist() == [0.0, 0.5, 1.0, 1.5]

    def test_window(self):
        axis = TimeAxis(0.0, 300.0, 10)
        sub = axis.window(2, 3)
        assert sub.start == 600.0
        assert sub.num_slots == 3
        with pytest.raises(ClassificationError):
            axis.window(8, 3)

    def test_rebin(self):
        axis = TimeAxis(0.0, 300.0, 7)
        coarse = axis.rebin(2)
        assert coarse.slot_seconds == 600.0
        assert coarse.num_slots == 3  # trailing slot dropped

    def test_rebin_factor_too_large(self):
        with pytest.raises(ClassificationError):
            TimeAxis(0.0, 300.0, 3).rebin(4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"start": 0.0, "slot_seconds": 0.0, "num_slots": 1},
            {"start": 0.0, "slot_seconds": 300.0, "num_slots": 0},
            {"start": np.nan, "slot_seconds": 300.0, "num_slots": 1},
            {"start": np.inf, "slot_seconds": 300.0, "num_slots": 1},
            {"start": -np.inf, "slot_seconds": 300.0, "num_slots": 1},
            {"start": 0.0, "slot_seconds": np.nan, "num_slots": 1},
            {"start": 0.0, "slot_seconds": np.inf, "num_slots": 1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ClassificationError):
            TimeAxis(**kwargs)
