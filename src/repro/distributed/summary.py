"""Per-slot flow summaries: the wire format between monitors and a
collector.

A monitor watching one tap of a link reduces each measurement slot to a
:class:`SlotSummary` — the candidate table it tracked (prefix → bytes)
plus one residual byte count conserving everything it saw but did not
track. Summaries are what crosses the network in a multi-monitor
deployment, so they serialize two ways:

- :meth:`SlotSummary.to_bytes` / :meth:`SlotSummary.from_bytes` — a
  compact, versioned, big-endian binary record (one slot per message),
  the shape a collector socket would speak;
- :func:`save_summaries` / :func:`load_summaries` — a whole run (one
  monitor, many slots) in a single ``.npz`` artefact, the shape
  ``repro stream --summary-out`` writes and ``repro merge`` reads.

Byte counts are carried as float64 because the aggregation path
accumulates float byte volumes; totals are conserved, not re-quantised.

Entries stay columns end to end: ``prefixes`` is a
:class:`~repro.net.prefix.PrefixColumns` (the wire record already *is*
two integer columns and a float column), so parsing, serializing and
truncating are array operations and a ``Prefix`` exists only for a row
somebody reads. Every check on outside data is still made, as a mask;
a failing record boxes its first offending row, so the error text is
the scalar one.

Version 2 added ``sample_rate``: the inversion factor a sampling
front-end already applied to the monitor's byte counts (1.0 for a full
packet stream). It rides in the header so a collector merging monitors
at different sampling rates knows the volumes are commensurable (all
inverted to full-traffic estimates) and can size its variance guard to
the coarsest rate. Version 1 records parse unchanged with
``sample_rate`` 1.0.
"""

from __future__ import annotations

import dataclasses
import math
import struct
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.distributed.framing import grid_cell, on_grid
from repro.errors import ClassificationError, ReproError, SummaryFormatError
from repro.flows.matrix import read_npz
from repro.net.prefix import Prefix, PrefixColumns

if TYPE_CHECKING:
    from repro.pipeline.sources import SlotFrame

#: Binary wire-format magic and version.
MAGIC = b"RSUM"
VERSION = 2

#: Header layout: magic, version, slot, start, slot_seconds,
#: residual_bytes, sample_rate, entry count, monitor-name byte length.
_HEADER = struct.Struct(">4sHqddddIH")
#: The version-1 header (no sample_rate), still accepted on read.
_HEADER_V1 = struct.Struct(">4sHqdddIH")
#: The shared magic + version prefix of every header version.
_PREAMBLE = struct.Struct(">4sH")


@dataclasses.dataclass(frozen=True)
class SlotSummary:
    """One monitor's candidate table for one measurement slot.

    ``prefixes[i]`` carried ``volumes[i]`` bytes during the slot;
    ``residual_bytes`` conserves untracked (or truncated-away) traffic.
    ``monitor`` names the producing tap, purely for reports.
    ``sample_rate`` is the sampling inversion factor already applied to
    every byte count (1.0 = unsampled); volumes are unbiased estimates
    of the full traffic either way, which is what makes mixed-rate
    merges add up.
    """

    slot: int
    start: float
    slot_seconds: float
    prefixes: Sequence[Prefix]
    volumes: np.ndarray
    residual_bytes: float = 0.0
    monitor: str = ""
    sample_rate: float = 1.0

    def __post_init__(self) -> None:
        volumes = np.asarray(self.volumes, dtype=np.float64)
        # any prefix sequence, held as columns (shared, not copied,
        # when it already is one: do not extend it afterwards)
        columns = PrefixColumns.of(self.prefixes)
        object.__setattr__(self, "volumes", volumes)
        object.__setattr__(self, "prefixes", columns)
        columns.check()
        self._check_entries()

    def _check_entries(self) -> None:
        """Every check of a new summary but its prefix columns' own."""
        self._check_fields()
        keys = np.sort(self.prefixes.keys())  # np.unique is ~10x slower
        if (keys[1:] == keys[:-1]).any():
            raise ClassificationError("summary entries must be duplicate-free")
        if self.residual_bytes < 0 or (self.volumes < 0).any():
            raise ClassificationError("byte volumes cannot be negative")

    def _derived(self, **changes) -> "SlotSummary":
        """A copy with ``changes`` from merging or cutting valid ones, so
        its entries' prefix, duplicate and sign checks are skipped; the
        rest still run, as sums can overflow to infinity."""
        summary = object.__new__(type(self))
        vars(summary).update(vars(self), **changes)
        summary._check_fields()
        return summary

    def _check_fields(self) -> None:
        scalars = (
            self.start,
            self.slot_seconds,
            self.residual_bytes,
            self.sample_rate,
        )
        # NaN slips through every ordering check below (nan <= 0 and
        # nan < 0 are both false) and inf through most of them
        finite = all(map(math.isfinite, scalars))
        if not (finite and np.isfinite(self.volumes).all()):
            raise ClassificationError("summary fields must be finite")
        if self.slot_seconds <= 0:
            raise ClassificationError("slot_seconds must be positive")
        # the slot-grid cell (start / slot_seconds) must be a number too
        if not math.isfinite(float(self.start) / float(self.slot_seconds)):
            raise ClassificationError(
                "start / slot_seconds overflows the slot grid"
            )
        if self.sample_rate < 1.0:
            raise ClassificationError("sample_rate must be >= 1")
        if len(self.prefixes) != self.volumes.size:
            raise ClassificationError(
                f"{len(self.prefixes)} prefixes for {self.volumes.size} "
                "volume entries"
            )

    @property
    def num_entries(self) -> int:
        """Tracked prefixes in this summary."""
        return len(self.prefixes)

    @property
    def total_bytes(self) -> float:
        """All traffic this summary accounts for, residual included."""
        return float(self.volumes.sum()) + self.residual_bytes

    @classmethod
    def from_frame(
        cls,
        frame: "SlotFrame",
        slot_seconds: float,
        monitor: str = "",
        top_k: int | None = None,
    ) -> "SlotSummary":
        """Reduce a pipeline slot frame to a summary.

        Rows with zero bytes are dropped (a summary is a candidate
        table, not a population history); the frame's residual row, if
        any, lands in ``residual_bytes``. ``top_k`` re-truncates on the
        way out, spilling the cut entries into the residual. The
        frame's ``sample_rate`` is carried through.
        """
        volumes = frame.rates * slot_seconds / 8.0
        residual = 0.0
        rows = np.flatnonzero(volumes > 0)
        if frame.residual_row is not None:
            if frame.residual_row < volumes.size:
                residual = float(volumes[frame.residual_row])
            rows = rows[rows != frame.residual_row]
        summary = cls(
            slot=frame.slot,
            start=frame.start,
            slot_seconds=slot_seconds,
            prefixes=PrefixColumns.take(frame.population, rows),
            volumes=volumes[rows],
            residual_bytes=residual,
            monitor=monitor,
            sample_rate=float(getattr(frame, "sample_rate", 1.0)),
        )
        if top_k is not None:
            summary = summary.truncated(top_k)
        return summary

    def truncated(self, k: int) -> "SlotSummary":
        """The top-``k`` entries by volume; the rest joins the residual.

        Ties break by row order (stable sort), so truncation is
        deterministic. The spill is the sum of the cut entries in rank
        order (never negative): totals are conserved to rounding.
        """
        if k < 0:
            raise ClassificationError("k must be non-negative")
        if self.num_entries <= k:
            return self
        order = np.argsort(-self.volumes, kind="stable")
        keep = np.sort(order[:k])
        spilled = float(self.volumes[order[k:]].sum())
        return self._derived(
            prefixes=self.prefixes[keep],
            volumes=self.volumes[keep],
            residual_bytes=self.residual_bytes + spilled,
        )

    # ------------------------------------------------------------------
    # binary wire format
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to the compact big-endian wire record."""
        monitor = self.monitor.encode("utf-8")
        if len(monitor) > 0xFFFF:
            raise ClassificationError("monitor name too long to encode")
        header = _HEADER.pack(
            MAGIC,
            VERSION,
            self.slot,
            self.start,
            self.slot_seconds,
            self.residual_bytes,
            self.sample_rate,
            self.num_entries,
            len(monitor),
        )
        return b"".join(
            (
                header,
                monitor,
                self.prefixes.network.astype(">u4").tobytes(),
                self.prefixes.length.astype(np.uint8).tobytes(),
                self.volumes.astype(">f8").tobytes(),
            )
        )

    @classmethod
    def from_bytes(cls, payload: bytes) -> "SlotSummary":
        """Parse one wire record produced by :meth:`to_bytes`.

        Speaks version 2 and, for compatibility with pre-sampling
        monitors, version 1 (which implies ``sample_rate`` 1.0).
        """
        if len(payload) < _PREAMBLE.size:
            raise SummaryFormatError("summary record truncated")
        magic, version = _PREAMBLE.unpack_from(payload)
        if magic != MAGIC:
            raise SummaryFormatError(
                f"bad summary magic {magic!r}; expected {MAGIC!r}"
            )
        header = {VERSION: _HEADER, 1: _HEADER_V1}.get(version)
        if header is None:
            raise SummaryFormatError(
                f"summary version {version} unsupported (speaks "
                f"{VERSION})"
            )
        if len(payload) < header.size:
            raise SummaryFormatError("summary record truncated")
        fields = header.unpack_from(payload)
        slot, start, slot_seconds, residual, *rate = fields[2:-2]
        count, monitor_len = fields[-2:]
        sample_rate = rate[0] if rate else 1.0  # version 1 carries none
        offset = header.size
        expected = offset + monitor_len + count * (4 + 1 + 8)
        if len(payload) != expected:
            raise SummaryFormatError(
                f"summary record is {len(payload)} bytes; header "
                f"promises {expected}"
            )
        name = payload[offset : offset + monitor_len]
        offset += monitor_len
        networks = np.frombuffer(payload, ">u4", count, offset)
        lengths = np.frombuffer(payload, np.uint8, count, offset + 4 * count)
        volumes = np.frombuffer(payload, ">f8", count, offset + 5 * count)
        try:
            prefixes = PrefixColumns(networks, lengths)
            prefixes.check()  # ahead of a bad name, as a boxed parse would
            summary = object.__new__(cls)
            vars(summary).update(
                slot=slot,
                start=start,
                slot_seconds=slot_seconds,
                prefixes=prefixes,
                volumes=volumes.astype(np.float64),
                residual_bytes=residual,
                monitor=name.decode("utf-8"),
                sample_rate=sample_rate,
            )
            summary._check_entries()  # the prefixes are checked once
            return summary
        except (ReproError, UnicodeDecodeError) as exc:
            raise SummaryFormatError(
                f"summary record carries invalid data: {exc}"
            ) from exc


def save_summaries(path: str, summaries: Sequence[SlotSummary]) -> None:
    """Write one monitor's per-slot summaries as a single ``.npz``.

    Slots must be in order, share one grid (``slot_seconds``) and
    no two may cover one grid cell, which ``repro merge`` refuses; the
    arrays are stored flattened with per-slot entry counts, which keeps
    the artefact a handful of numpy arrays however many slots ran.
    """
    summaries = list(summaries)
    if not summaries:
        raise ClassificationError("no summaries to save")
    grids = {summary.slot_seconds for summary in summaries}
    if len(grids) > 1:
        raise ClassificationError(
            "summaries mix slot grids; one file holds one monitor run"
        )
    slots = [summary.slot for summary in summaries]
    if sorted(slots) != slots or len(set(slots)) != len(slots):
        raise ClassificationError(
            "summaries must be slot-ordered and duplicate-free"
        )
    # an off-grid summary has no cell to share: a merge refuses it
    cells = sorted(
        grid_cell(s.start, s.slot_seconds)
        for s in summaries
        if on_grid(s.start, s.slot_seconds)
    )
    shared = [cell for cell, after in zip(cells, cells[1:]) if cell == after]
    if shared:
        raise ClassificationError(
            f"two summaries cover grid cell {shared[0]}; a run has one "
            "summary per cell"
        )
    tables = [summary.prefixes for summary in summaries]
    networks = np.concatenate([table.network for table in tables])
    lengths = np.concatenate([table.length for table in tables])
    arrays = dict(
        version=np.int64(VERSION),
        slot_seconds=np.float64(summaries[0].slot_seconds),
        monitor=np.str_(summaries[0].monitor),
        slots=np.array(slots, dtype=np.int64),
        starts=np.array([summary.start for summary in summaries]),
        residuals=np.array([s.residual_bytes for s in summaries]),
        sample_rates=np.array([s.sample_rate for s in summaries]),
        counts=np.array([len(table) for table in tables], dtype=np.int64),
        networks=networks.astype(np.uint32),
        lengths=lengths.astype(np.uint8),
        volumes=np.concatenate([s.volumes for s in summaries]),
    )
    try:
        # savez on an open handle writes to exactly the path given; on
        # a bare string numpy silently appends ".npz", and the caller
        # would then report a file that does not exist
        with open(path, "wb") as stream:
            np.savez_compressed(stream, **arrays)
    except OSError as exc:
        raise ReproError(f"cannot write summaries {path!r}: {exc}") from exc


def load_summaries(path: str) -> list[SlotSummary]:
    """Load a monitor run written by :func:`save_summaries`.

    Accepts the current artefact version and version 1 (pre-sampling;
    every slot gets ``sample_rate`` 1.0).
    """
    data = read_npz(path, "summaries", SummaryFormatError)
    try:
        if int(data["version"]) not in (1, VERSION):
            raise SummaryFormatError(
                f"summary file version {int(data['version'])} "
                f"unsupported (speaks {VERSION})"
            )
        slot_seconds = float(data["slot_seconds"])
        monitor = str(data["monitor"])
        counts = data["counts"].astype(np.int64)
        if "sample_rates" in data:
            sample_rates = data["sample_rates"].astype(np.float64)
        else:
            sample_rates = np.ones(counts.size)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        networks = data["networks"].astype(np.int64)
        lengths = data["lengths"].astype(np.int64)
        if not bounds[-1] == networks.size == lengths.size:
            raise SummaryFormatError(
                "summary file entry counts disagree with its tables"
            )
        summaries = []
        for index in range(counts.size):
            lo, hi = int(bounds[index]), int(bounds[index + 1])
            summaries.append(
                SlotSummary(
                    slot=int(data["slots"][index]),
                    start=float(data["starts"][index]),
                    slot_seconds=slot_seconds,
                    prefixes=PrefixColumns(networks[lo:hi], lengths[lo:hi]),
                    volumes=data["volumes"][lo:hi],
                    residual_bytes=float(data["residuals"][index]),
                    monitor=monitor,
                    sample_rate=float(sample_rates[index]),
                )
            )
        return summaries
    except SummaryFormatError:
        raise
    except (KeyError, IndexError, ValueError, TypeError, ReproError) as exc:
        raise SummaryFormatError(
            f"summary file {path!r} is malformed: {exc}"
        ) from exc


__all__ = [
    "MAGIC",
    "VERSION",
    "SlotSummary",
    "load_summaries",
    "save_summaries",
]
