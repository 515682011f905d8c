"""Statistics: ECDF/LLCD, histograms and the aest tail estimator."""

import sys
import types

from repro._lazy import attach

# ``aest`` and ``ecdf`` are functions named like the modules that define
# them, and loading a submodule binds it on its package. ``ecdf`` is
# bound here, after and over its module, which every classifying path
# loads anyway. ``aest`` is bound on first use, so that only an aest
# run pays for its module; the package class below refuses to let the
# module replace the function, whoever imports the module first.
from repro.stats.ecdf import ecdf

_exports, __dir__, __all__ = attach(
    __name__,
    {
        "aest": ("AestConfig", "AestResult", "aggregate_sums"),
        "ecdf": ("ShareCurve", "ccdf", "llcd_points", "quantile"),
        "histogram": ("Histogram", "integer_histogram"),
    },
)
__all__ += ["aest", "ecdf"]


def __getattr__(name: str):
    if name != "aest":
        return _exports(name)
    from repro.stats.aest import aest

    globals()["aest"] = aest
    return aest


class _Package(types.ModuleType):
    def __setattr__(self, name: str, value) -> None:
        if name != "aest" or not isinstance(value, types.ModuleType):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
