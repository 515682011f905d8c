"""Packet sampling front-end with inversion correction.

Production line-rate monitors never observe full traffic: routers
export 1-in-N sampled packet streams (or NetFlow-style sampled flow
records), and the classifier downstream has to work from that partial
view. "High Speed Elephant Flow Detection Under Partial Information"
(PAPERS.md) is the template: sample, invert the byte counts by the
sampling probability so volume estimates stay unbiased, and guard the
per-flow verdicts against the variance the inversion amplifies.

:class:`SamplingSpec` describes the sampling policy; wrapping any
:class:`~repro.pipeline.sources.PacketSource` with
:meth:`SamplingSpec.wrap` yields a :class:`SampledPacketSource` whose
batches contain only the selected packets, with ``wire_bytes`` already
scaled by N (integer multiply — integer columns come out int64, so
sampled batches travel the shared-memory ring unchanged). The batch
contract is every :class:`PacketSource`'s: at most ``chunk_packets``
rows — a sampled source re-chunks what it keeps, so downstream is paid
per kept row — and ``packets_seen`` is conserved over the run, not per
inner batch (:class:`SampledPacketSource`). The applied scale
travels with every frame as ``SlotFrame.sample_rate`` and with every
wire summary as ``SlotSummary.sample_rate``, so a collector can merge
monitors running at different rates and keep the variance guard of the
coarsest one.

Three modes:

- ``deterministic`` — 1-in-N count-based selection on a global packet
  counter (the classic router implementation). ``seed`` picks the
  counter phase. Averaged over all N phases the inverted totals equal
  the true totals *exactly*, which the property suite asserts.
- ``probabilistic`` — i.i.d. per-packet coin flips with p = 1/N from a
  seeded generator; the textbook unbiased estimator.
- ``flow-records`` — deterministic 1-in-N selection followed by
  aggregation of surviving packets into one record per flow key per
  batch of the inner source (the export interval), emulating a router
  exporting sampled flow records instead of packets. Record timestamps
  are the first sampled packet's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.errors import ClassificationError
from repro.pipeline.sources import (
    DEFAULT_CHUNK_PACKETS,
    PacketBatch,
    PacketSource,
)

#: Valid ``SamplingSpec.mode`` values.
SAMPLING_MODES = ("deterministic", "probabilistic", "flow-records")

#: Default variance guard: a flow needs at least this many *sampled*
#: packets' worth of evidence in a slot before it can be called an
#: elephant (see :attr:`SamplingSpec.evidence_bytes`).
DEFAULT_GUARD_PACKETS = 2
#: Assumed mean packet size for the evidence floor, in bytes.
DEFAULT_GUARD_PACKET_BYTES = 1500.0


@dataclass(frozen=True)
class SamplingSpec:
    """Sampling policy for a monitor's packet front-end.

    ``rate`` is N in 1-in-N: 1 means unsampled. ``invert`` scales the
    surviving packets' bytes by N so downstream volume estimates are
    unbiased; disabling it leaves raw sampled counts (and stamps
    frames with ``sample_rate`` 1.0, i.e. "no correction applied").

    ``guard_packets`` x ``guard_packet_bytes`` is the evidence floor:
    when classifying a sampled stream, a flow whose *sampled* volume in
    a slot falls below this floor is suppressed from the elephant
    verdict (its threshold/EWMA bookkeeping still runs). One lucky
    sampled packet from a mouse inverts to N packets' worth of
    apparent volume; requiring a couple of real observations cuts
    those false elephants off cheaply.
    """

    rate: int = 1
    mode: str = "deterministic"
    seed: int = 0
    invert: bool = True
    guard_packets: int = DEFAULT_GUARD_PACKETS
    guard_packet_bytes: float = DEFAULT_GUARD_PACKET_BYTES

    def __post_init__(self) -> None:
        if int(self.rate) != self.rate or self.rate < 1:
            raise ClassificationError("sampling rate must be an integer >= 1")
        if self.mode not in SAMPLING_MODES:
            raise ClassificationError(
                f"unknown sampling mode {self.mode!r}; "
                f"choose from {', '.join(SAMPLING_MODES)}"
            )
        if self.guard_packets < 0:
            raise ClassificationError("guard_packets must be >= 0")
        if self.guard_packet_bytes <= 0:
            raise ClassificationError("guard_packet_bytes must be positive")

    @property
    def probability(self) -> float:
        """Per-packet selection probability p = 1/N."""
        return 1.0 / self.rate

    @property
    def applied_rate(self) -> float:
        """The inversion factor actually applied to byte counts.

        This is what frames and summaries carry as ``sample_rate``: N
        when inversion is on, else 1.0 (no correction was applied, so
        downstream must not assume one).
        """
        return float(self.rate) if self.invert else 1.0

    @property
    def evidence_bytes(self) -> float:
        """Variance-guard floor on a flow's *sampled* bytes per slot."""
        return self.guard_packets * self.guard_packet_bytes

    @property
    def is_null(self) -> bool:
        """True when wrapping a source would change nothing."""
        return self.rate == 1 and self.mode != "flow-records"

    def wrap(self, source: PacketSource) -> PacketSource:
        """The sampled view of ``source`` (or ``source`` itself when
        this spec is a no-op)."""
        if self.is_null:
            return source
        return SampledPacketSource(source, self)


#: The no-op policy: every packet observed, no correction.
UNSAMPLED = SamplingSpec()


def _flow_records(columns: tuple) -> tuple:
    """Collapse packet columns to one row per flow key, NetFlow-style.

    Bytes are summed per destination key; the record keeps the first
    sampled packet's timestamp, source, and protocol, and rows are
    emitted in first-appearance order so time stays monotone.
    """
    timestamps, sources, destinations, protocols, wire = columns
    if wire.size == 0:
        return columns
    _, first, inverse = np.unique(
        destinations, return_index=True, return_inverse=True
    )
    volumes = np.zeros(first.size, dtype=wire.dtype)
    np.add.at(volumes, inverse, wire)
    order = np.argsort(first, kind="stable")
    first = first[order]
    return (
        timestamps[first],
        sources[first],
        destinations[first],
        protocols[first],
        volumes[order],
    )


class SampledPacketSource:
    """A :class:`PacketSource` showing the sampled view of another.

    Per offered packet the sampler pays for the selection draw and
    nothing else: selection yields the kept *row indices* of each inner
    batch, the columns are taken by index, and (when ``spec.invert``)
    the kept ``wire_bytes`` are multiplied by N — integer sizes as
    int64 whatever width the inner source handed over, floats as float.
    In flow-records mode the kept rows are then aggregated per *inner*
    batch: a record never swallows bytes from a later export interval.

    What is kept is held and re-chunked: every yielded batch but the
    last has exactly :attr:`chunk_packets` rows, the last fewer — so
    resolver, slot split, table update and ring hop run once per
    ``chunk_packets`` *kept* rows, with less than one chunk in hand
    between inner batches (which must not overwrite what they yielded).
    ``packets_seen`` is conserved, not per-inner-batch: over the
    yielded batches it sums to what it sums to over the inner ones
    (sampled-away packets count — scanned, no row — those after the
    last kept row included), and is ``>= num_packets`` batch by batch.

    Counters (reset at each ``batches()`` call): ``packets_offered``
    rows seen from the inner source, ``packets_selected`` rows kept,
    ``records_emitted`` rows yielded (differs from selected only in
    flow-records mode).
    """

    def __init__(self, source: PacketSource, spec: SamplingSpec) -> None:
        self.source = source
        self.spec = spec
        #: Rows per yielded batch: the inner source's chunk size.
        self.chunk_packets: int = (
            getattr(source, "chunk_packets", None) or DEFAULT_CHUNK_PACKETS
        )
        self.packets_offered = 0
        self.packets_selected = 0
        self.records_emitted = 0

    @property
    def sample_rate(self) -> float:
        """The ``sample_rate`` frames built from this source carry."""
        return self.spec.applied_rate

    def _selector(self) -> Callable[[int], np.ndarray | slice]:
        """``select(n)``: the kept rows of the next ``n`` offered packets."""
        spec = self.spec
        if spec.rate == 1:
            return lambda n: slice(None)
        if spec.mode == "probabilistic":
            rng = np.random.default_rng(spec.seed)
            probability = spec.probability
            return lambda n: np.flatnonzero(rng.random(n) < probability)
        # count-based, packet i kept when (seed + i) % rate == 0: the
        # rows until the next kept one are carried across batches
        phase = -spec.seed % spec.rate

        def select(n: int) -> np.ndarray:
            nonlocal phase
            rows = np.arange(phase, n, spec.rate)
            phase = (phase - n) % spec.rate
            return rows

        return select

    def batches(self) -> Iterator[PacketBatch]:
        spec = self.spec
        chunk = self.chunk_packets
        select = self._selector()
        self.packets_offered = 0
        self.packets_selected = 0
        self.records_emitted = 0
        held: list[tuple] = []  # kept columns no batch has carried yet
        held_rows = 0
        seen = 0  # inner packets_seen no yielded batch has claimed yet
        for batch in self.source.batches():
            self.packets_offered += batch.num_packets
            seen += batch.packets_seen
            rows = select(batch.num_packets)
            wire = batch.wire_bytes[rows]
            if wire.dtype.kind in "iu":
                # a compact size column would wrap under the inversion
                wire = wire.astype(np.int64, copy=False)
            if spec.invert and spec.rate > 1:
                wire = wire * spec.rate
            columns = (
                batch.timestamps[rows],
                batch.sources[rows],
                batch.destinations[rows],
                batch.protocols[rows],
                wire,
            )
            self.packets_selected += wire.size
            if spec.mode == "flow-records":
                columns = _flow_records(columns)
            self.records_emitted += columns[0].size
            # the first part is held even when empty: it carries the
            # dtypes of a tail batch that keeps nothing
            if columns[0].size or not held:
                held.append(columns)
                held_rows += columns[0].size
            if held_rows < chunk:
                continue
            ready = _drain(held)
            full = held_rows - held_rows % chunk
            for lo in range(0, full, chunk):
                # leave one seen packet behind per row still held
                left = held_rows - lo - chunk
                yield _batch(ready, lo, lo + chunk, seen - left)
                seen = left
            held.append(tuple(column[full:] for column in ready))
            held_rows -= full
        if held_rows or seen:
            yield _batch(_drain(held), 0, held_rows, seen)


def _drain(parts: list[tuple]) -> tuple:
    """The held column tuples as one, and ``parts`` emptied — what is
    yielded is not also kept in pieces while downstream works on it."""
    columns = tuple(np.concatenate(column) for column in zip(*parts))
    parts.clear()
    return columns


def _batch(columns: tuple, lo: int, hi: int, seen: int) -> PacketBatch:
    return PacketBatch(*(c[lo:hi] for c in columns), packets_seen=seen)
