"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries while still being
able to distinguish failure modes when they need to.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class AddressError(ReproError, ValueError):
    """An IPv4 address or network prefix is malformed or out of range."""


class RoutingError(ReproError):
    """A routing-table operation failed (duplicate route, bad prefix, ...)."""


class PcapError(ReproError):
    """A pcap file or packet buffer could not be parsed or encoded."""


class PcapFormatError(PcapError):
    """The pcap file magic, header, or record structure is invalid."""


class PacketDecodeError(PcapError):
    """A packet buffer is too short or structurally invalid for its layer."""


class EstimatorError(ReproError):
    """A statistical estimator received input it cannot work with."""


class InsufficientDataError(EstimatorError):
    """Too few samples to run the requested estimator."""


class TailNotFoundError(EstimatorError):
    """The aest procedure found no region of consistent power-law scaling."""


class CutBelowTableError(EstimatorError):
    """A constant-load cut falls inside a slot's untracked bytes (the
    tracked flows carry no more than β); ``tracked_cut`` is the cut of
    the tracked rates alone."""

    def __init__(self, tracked_cut: float) -> None:
        super().__init__(f"cut below the table (tracked: {tracked_cut!r})")
        self.tracked_cut = tracked_cut


class ClassificationError(ReproError):
    """The classification engine was misconfigured or fed inconsistent data."""


class SummaryFormatError(ReproError):
    """A serialized slot summary is malformed or version-incompatible."""


class ServiceProtocolError(ReproError):
    """A collector-service peer violated the wire protocol.

    Raised for semantic violations on a structurally valid stream — a
    summary before the hello, a second connection claiming a monitor
    name that is still attached, a query for a link the collector has
    never heard of. Byte-level corruption is
    :class:`SummaryFormatError` instead.
    """


class FaultPlanError(ReproError, ValueError):
    """A :mod:`repro.distributed.faults` directive string is malformed."""


class ClockSkewWarning(UserWarning):
    """Monitor clocks appear skewed beyond a slot boundary.

    Not a :class:`ReproError`: the merge still completes (bytes are
    conserved either way), but per-slot attribution is suspect — the
    collector estimated that one monitor's slot grid is offset from the
    others', so its traffic is being binned into the wrong intervals.
    """


class WorkloadError(ReproError):
    """A synthetic-workload model was configured with invalid parameters."""


class ExperimentError(ReproError):
    """An experiment configuration or run is invalid."""
