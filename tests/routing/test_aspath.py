"""Unit tests for AS-path and AS metadata."""

import pytest

from repro.errors import RoutingError
from repro.routing.aspath import AsPath, AsTier, AutonomousSystem


class TestAutonomousSystem:
    def test_valid(self):
        asn = AutonomousSystem(1239, AsTier.TIER1, "sprint")
        assert str(asn) == "AS1239"
        assert asn.tier is AsTier.TIER1

    @pytest.mark.parametrize("bad", [0, -5, 1 << 32])
    def test_rejects_bad_numbers(self, bad):
        with pytest.raises(RoutingError):
            AutonomousSystem(bad, AsTier.STUB)


class TestAsPath:
    def test_origin_is_last_hop(self):
        path = AsPath((1239, 7018, 65001))
        assert path.origin == 65001
        assert path.length == 3

    def test_empty_path_rejected(self):
        with pytest.raises(RoutingError):
            AsPath(())

    def test_prepending_allowed(self):
        path = AsPath((1239, 65001, 65001, 65001))
        assert path.length == 4

    def test_loop_rejected(self):
        with pytest.raises(RoutingError):
            AsPath((1239, 7018, 1239))

    def test_str(self):
        assert str(AsPath((1, 2, 3))) == "1 2 3"
