"""Unit tests for the RateMatrix structure."""

import numpy as np
import pytest

from repro.errors import ClassificationError
from repro.flows.matrix import RateMatrix
from repro.flows.records import TimeAxis
from repro.net.prefix import Prefix


def make_matrix(rates, slot_seconds=300.0):
    rates = np.asarray(rates, dtype=float)
    prefixes = [Prefix.from_host(i << 8, 24) for i in range(rates.shape[0])]
    axis = TimeAxis(0.0, slot_seconds, rates.shape[1])
    return RateMatrix(prefixes, axis, rates)


class TestValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ClassificationError):
            RateMatrix(
                [Prefix.parse("10.0.0.0/8")],
                TimeAxis(0.0, 300.0, 2),
                np.zeros((1, 3)),
            )

    def test_negative_rates_rejected(self):
        with pytest.raises(ClassificationError):
            make_matrix([[-1.0, 0.0]])

    def test_nan_rejected(self):
        with pytest.raises(ClassificationError):
            make_matrix([[np.nan, 0.0]])

    def test_duplicate_prefixes_rejected(self):
        prefix = Prefix.parse("10.0.0.0/8")
        with pytest.raises(ClassificationError):
            RateMatrix([prefix, prefix], TimeAxis(0.0, 300.0, 1),
                       np.zeros((2, 1)))

    def test_1d_rejected(self):
        with pytest.raises(ClassificationError):
            RateMatrix([Prefix.parse("10.0.0.0/8")],
                       TimeAxis(0.0, 300.0, 2), np.zeros(2))


class TestViews:
    def test_slot_access(self):
        matrix = make_matrix([[1.0, 2.0], [3.0, 4.0]])
        assert matrix.slot_rates(1).tolist() == [2.0, 4.0]
        with pytest.raises(ClassificationError):
            matrix.slot_rates(2)

    def test_index_of(self):
        matrix = make_matrix([[1.0], [2.0]])
        assert matrix.index_of(matrix.prefixes[1]) == 1
        with pytest.raises(ClassificationError):
            matrix.index_of(Prefix.parse("203.0.113.0/24"))

    def test_iter_slots(self):
        matrix = make_matrix([[1.0, 2.0]])
        slots = list(matrix.iter_slots())
        assert slots[0][0] == 0 and slots[0][1].tolist() == [1.0]
        assert slots[1][0] == 1 and slots[1][1].tolist() == [2.0]


class TestStatistics:
    def test_total_and_active(self):
        matrix = make_matrix([[1.0, 0.0], [3.0, 4.0]])
        assert matrix.total_per_slot().tolist() == [4.0, 4.0]
        assert matrix.active_per_slot().tolist() == [2, 1]

    def test_ever_active_mask(self):
        matrix = make_matrix([[0.0, 0.0], [0.0, 1.0]])
        assert matrix.ever_active_mask().tolist() == [False, True]

    def test_mean_utilization(self):
        matrix = make_matrix([[50.0, 150.0]])
        assert matrix.mean_utilization(1000.0) == pytest.approx(0.1)
        with pytest.raises(ClassificationError):
            matrix.mean_utilization(0.0)


class TestTransforms:
    def test_rebin_averages_bandwidth(self):
        matrix = make_matrix([[2.0, 4.0, 6.0, 8.0, 99.0]])
        coarse = matrix.rebin(2)
        assert coarse.rates.tolist() == [[3.0, 7.0]]  # trailing slot dropped
        assert coarse.axis.slot_seconds == 600.0

    def test_rebin_conserves_bytes_when_divisible(self):
        matrix = make_matrix(np.random.default_rng(1).uniform(
            0, 100, size=(5, 12)))
        coarse = matrix.rebin(3)
        original_bits = matrix.rates.sum() * 300.0
        coarse_bits = coarse.rates.sum() * 900.0
        assert coarse_bits == pytest.approx(original_bits)

    def test_window(self):
        matrix = make_matrix([[1.0, 2.0, 3.0]])
        sub = matrix.window(1, 2)
        assert sub.rates.tolist() == [[2.0, 3.0]]
        assert sub.axis.start == 300.0


class TestPersistence:
    def test_npz_roundtrip(self, tmp_path):
        matrix = make_matrix([[1.5, 0.0], [2.5, 3.5]])
        path = str(tmp_path / "rates.npz")
        matrix.save_npz(path)
        loaded = RateMatrix.load_npz(path)
        assert loaded.prefixes == matrix.prefixes
        assert loaded.axis == matrix.axis
        assert np.array_equal(loaded.rates, matrix.rates)


class TestCsvInterop:
    def test_csv_roundtrip(self, tmp_path):
        matrix = make_matrix([[1234.5, 0.0, 7.25], [0.5, 3.5e6, 42.0]])
        path = str(tmp_path / "rates.csv")
        matrix.save_csv(path)
        loaded = RateMatrix.load_csv(path)
        assert loaded.prefixes == matrix.prefixes
        assert loaded.axis.slot_seconds == matrix.axis.slot_seconds
        assert loaded.axis.num_slots == matrix.axis.num_slots
        assert np.allclose(loaded.rates, matrix.rates, rtol=1e-5)

    def test_csv_roundtrip_preserves_sub_millisecond_axis(self, tmp_path):
        """Full-precision header timestamps: a 0.5 ms slot length must
        survive the round trip (the old ``.3f`` header rounded it to a
        wrong inferred axis)."""
        matrix = make_matrix([[1.0, 2.0, 3.0]], slot_seconds=0.0005)
        path = str(tmp_path / "fine.csv")
        matrix.save_csv(path)
        loaded = RateMatrix.load_csv(path)
        assert loaded.axis.slot_seconds == matrix.axis.slot_seconds
        assert loaded.axis.start == matrix.axis.start
        assert np.allclose(loaded.rates, matrix.rates, rtol=1e-5)

    def test_csv_roundtrip_preserves_fractional_start(self, tmp_path):
        matrix = RateMatrix(
            [Prefix.from_host(0, 24)],
            TimeAxis(1234.56789, 60.0, 2),
            np.array([[5.0, 6.0]]),
        )
        path = str(tmp_path / "start.csv")
        matrix.save_csv(path)
        loaded = RateMatrix.load_csv(path)
        assert loaded.axis.start == matrix.axis.start

    def test_csv_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,1,2\n")
        with pytest.raises(ClassificationError):
            RateMatrix.load_csv(str(path))

    def test_csv_irregular_times_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("prefix,0.0,300.0,700.0\n10.0.0.0/8,1,2,3\n")
        with pytest.raises(ClassificationError):
            RateMatrix.load_csv(str(path))

    def test_single_slot_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("prefix,0.0\n10.0.0.0/8,1\n")
        with pytest.raises(ClassificationError):
            RateMatrix.load_csv(str(path))
