"""Seeded inputs and the reference answers they are checked against.

Everything a workload feeds the program comes from here, driven by one
``numpy`` generator seeded with ``--seed``: Zipf flow sizes over a set
of destination prefixes, Poisson arrivals (sorted uniform times) over
60-second slots, heavy flows carrying 700-1500 B packets and the rest
64-600 B. Sizes are arguments, so the same seed and sizes always give
the same bytes on disk.

The reference elephants are built *independently* of the streaming
path under test: a numpy ``(flow, slot)`` byte sum straight from the
generated columns, turned into a :class:`RateMatrix` and classified by
the batch :class:`ClassificationEngine`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.core.engine import ClassificationEngine, Feature, Scheme
from repro.distributed import SlotSummary
from repro.flows.matrix import RateMatrix
from repro.flows.records import TimeAxis
from repro.net.prefix import Prefix

#: Timestamp of slot 0, a multiple of the slot length so the
#: aggregator's grid and the generator's slot numbers coincide.
BASE_TIME = 1_000_000_020.0
SLOT_SECONDS = 60.0
_MICROS = 1_000_000
_SLOT_MICROS = int(SLOT_SECONDS) * _MICROS

#: Share of flows (by Zipf rank) that send large packets.
HEAVY_SHARE = 0.01

#: Announced-prefix length mix of the synthetic RIB.
_RIB_LENGTHS = np.array([16, 18, 19, 20, 21, 22, 23, 24])
_RIB_SHARES = np.array([0.03, 0.03, 0.05, 0.08, 0.08, 0.1, 0.1, 0.53])

#: Captured bytes per pcap record: Ethernet + IPv4 fixed header.
_CAPTURED = 34
_PCAP_GLOBAL = struct.Struct("<IHHiIII")


@dataclass(frozen=True)
class Trace:
    """A generated packet trace as parallel columns.

    ``flows[i]`` is packet ``i``'s flow, numbered by Zipf rank (0 is
    the heaviest); ``networks``/``lengths`` give each flow's prefix.
    ``micros`` are integer microsecond offsets from :data:`BASE_TIME`,
    the resolution a pcap record carries, so the slot of a packet is
    integer arithmetic for the reference and survives the file format.
    """

    micros: np.ndarray
    flows: np.ndarray
    sizes: np.ndarray
    networks: np.ndarray
    lengths: np.ndarray
    num_slots: int

    @property
    def num_packets(self) -> int:
        return self.micros.size

    @property
    def total_bytes(self) -> int:
        return int(self.sizes.sum())

    @property
    def timestamps(self) -> np.ndarray:
        return BASE_TIME + self.micros / _MICROS

    @property
    def slots(self) -> np.ndarray:
        """Each packet's slot number, by integer arithmetic."""
        return self.micros // _SLOT_MICROS

    @property
    def destinations(self) -> np.ndarray:
        """One host inside each packet's flow prefix.

        Host ``network + 1`` resolves to exactly that prefix when
        networks are distinct and no prefix is longer than /24: a more
        specific cover would need the same network address.
        """
        return self.networks[self.flows] + 1

    def prefixes(self) -> list[Prefix]:
        return [
            Prefix(network, length)
            for network, length in zip(
                self.networks.tolist(), self.lengths.tolist()
            )
        ]


def make_trace(
    rng: np.random.Generator,
    packets: int,
    networks: np.ndarray,
    lengths: np.ndarray,
    num_slots: int,
    zipf_s: float,
) -> Trace:
    """Zipf(``zipf_s``) packets over the given flow prefixes."""
    num_flows = networks.size
    weights = np.arange(1, num_flows + 1, dtype=np.float64) ** -zipf_s
    cdf = np.cumsum(weights / weights.sum())
    flows = np.searchsorted(cdf, rng.random(packets), side="right")
    flows = np.minimum(flows, num_flows - 1)
    micros = np.sort(rng.integers(0, num_slots * _SLOT_MICROS, packets))
    heavy = flows < max(1, int(num_flows * HEAVY_SHARE))
    sizes = np.where(
        heavy,
        rng.integers(700, 1501, packets),
        rng.integers(64, 601, packets),
    )
    return Trace(
        micros=micros,
        flows=flows,
        sizes=sizes.astype(np.int64),
        networks=networks,
        lengths=lengths,
        num_slots=num_slots,
    )


def slash24_flows(
    rng: np.random.Generator, num_flows: int
) -> tuple[np.ndarray, np.ndarray]:
    """``num_flows`` distinct /24 networks in seeded random order."""
    index = rng.permutation(1 << 21)[:num_flows] + (1 << 16)
    networks = index.astype(np.int64) << 8
    return networks, np.full(num_flows, 24, dtype=np.int64)


def make_rib(
    rng: np.random.Generator, routes: int
) -> tuple[np.ndarray, np.ndarray]:
    """A mixed-length RIB of about ``routes`` prefixes.

    Networks are distinct (see :attr:`Trace.destinations`); prefixes of
    different lengths still nest, so the compiled LPM has real
    structure to flatten.
    """
    lengths = rng.choice(_RIB_LENGTHS, size=routes, p=_RIB_SHARES)
    addresses = rng.integers(1 << 24, 224 << 24, size=routes)
    host_bits = 32 - lengths
    networks = (addresses >> host_bits) << host_bits
    networks, first = np.unique(networks, return_index=True)
    return networks.astype(np.int64), lengths[first].astype(np.int64)


def write_rib(path: str, networks: np.ndarray, lengths: np.ndarray) -> None:
    """One CIDR per line, the format ``repro stream --rib`` reads."""
    lines = [
        f"{n >> 24}.{(n >> 16) & 255}.{(n >> 8) & 255}.{n & 255}/{length}\n"
        for n, length in zip(networks.tolist(), lengths.tolist())
    ]
    with open(path, "w") as stream:
        stream.writelines(lines)


def write_pcap(path: str, trace: Trace) -> None:
    """Header-only Ethernet pcap: snaplen 64, ``orig_len`` = wire size.

    Vectorised: every record is one row of a ``uint8`` matrix, so a
    million packets cost a fraction of a second and 50 bytes each.
    """
    count = trace.num_packets
    records = np.zeros((count, 16 + _CAPTURED), dtype=np.uint8)
    header = np.empty((count, 4), dtype="<u4")
    header[:, 0] = int(BASE_TIME) + trace.micros // _MICROS
    header[:, 1] = trace.micros % _MICROS
    header[:, 2] = _CAPTURED
    header[:, 3] = trace.sizes
    records[:, :16] = header.view(np.uint8).reshape(count, 16)
    ip = 16 + 14
    records[:, 16 + 12] = 0x08  # ethertype IPv4
    records[:, ip] = 0x45
    total_length = (trace.sizes - 14).astype(">u2")
    records[:, ip + 2 : ip + 4] = total_length.view(np.uint8).reshape(count, 2)
    records[:, ip + 8] = 64  # ttl
    records[:, ip + 9] = 17  # udp
    records[:, ip + 12] = 10  # source 10.0.0.0
    destinations = trace.destinations.astype(">u4")
    records[:, ip + 16 : ip + 20] = destinations.view(np.uint8).reshape(
        count, 4
    )
    with open(path, "wb") as stream:
        stream.write(_PCAP_GLOBAL.pack(0xA1B2C3D4, 2, 4, 0, 0, 64, 1))
        stream.write(records.tobytes())


def slot_volumes(trace: Trace) -> np.ndarray:
    """Bytes per ``(flow, slot)``, summed straight from the columns."""
    num_flows = trace.networks.size
    volumes = np.bincount(
        trace.slots * num_flows + trace.flows,
        weights=trace.sizes,
        minlength=num_flows * trace.num_slots,
    )
    return volumes.reshape(trace.num_slots, num_flows).T


def slot_arrivals(trace: Trace, sizes: np.ndarray | None = None) -> np.ndarray:
    """Bytes arriving in each slot (``sizes`` overrides the wire sizes,
    for a stream a sampler has thinned and re-weighted)."""
    return np.bincount(
        trace.slots,
        weights=trace.sizes if sizes is None else sizes,
        minlength=trace.num_slots,
    )


def reference_entries(trace: Trace) -> list[list[dict[str, object]]]:
    """The exact, unsampled elephants per slot, in envelope shape.

    Same ``{"prefix", "rate_bps"}`` rows, same ordering, as the
    ``elephants_by_slot`` block of a ``repro.result/1`` envelope — but
    computed by the batch engine over a matrix the benchmark summed
    itself, never by the streaming path being measured.
    """
    volumes = slot_volumes(trace)
    active = np.flatnonzero(volumes.any(axis=1))
    prefixes = trace.prefixes()
    matrix = RateMatrix(
        [prefixes[row] for row in active.tolist()],
        TimeAxis(BASE_TIME, SLOT_SECONDS, trace.num_slots),
        volumes[active] * 8.0 / SLOT_SECONDS,
    )
    result = ClassificationEngine(matrix).run(
        Scheme.CONSTANT_LOAD, Feature.LATENT_HEAT
    )
    names = [str(prefix) for prefix in matrix.prefixes]
    by_slot = []
    for slot in range(trace.num_slots):
        entries = [
            {
                "prefix": names[row],
                "rate_bps": round(float(matrix.rates[row, slot]), 6),
            }
            for row in np.flatnonzero(result.elephant_mask[:, slot]).tolist()
        ]
        entries.sort(key=lambda entry: (-entry["rate_bps"], entry["prefix"]))
        by_slot.append(entries)
    return by_slot


def make_summaries(
    rng: np.random.Generator,
    cells: int,
    entries: int,
    elephants: int,
    monitors: tuple[str, ...],
) -> dict[str, list[SlotSummary]]:
    """Per-monitor runs of ``entries``-row summaries over ``cells``.

    Every monitor sees the same ``elephants`` persistent heavy prefixes
    (its share of their bytes jittered per cell) plus its own window of
    a churning tail that slides a few dozen prefixes per cell, so the
    merged table overflows ``entries`` and is re-truncated every slot.
    The heavy volumes fall off geometrically over one decade whatever
    the seed — the seed picks the prefixes and the jitter — so the
    number of elephants per slot, and with it the size of a query
    reply, varies little from seed to seed.
    """
    tail = entries - elephants
    pool_size = 4 * entries
    networks, _ = slash24_flows(rng, pool_size)
    pool = [Prefix(network, 24) for network in networks.tolist()]
    churn = pool_size - elephants
    base = 4e7 * 10.0 ** -np.linspace(0.0, 1.0, elephants)
    runs: dict[str, list[SlotSummary]] = {}
    for index, monitor in enumerate(monitors):
        run = []
        for cell in range(cells):
            start = (cell * 61 + index * (churn // len(monitors))) % churn
            rows = elephants + (start + np.arange(tail)) % churn
            heavy = base * rng.uniform(0.7, 1.3, size=elephants)
            light = rng.uniform(2e4, 4e5, size=tail)
            prefixes = pool[:elephants] + [pool[row] for row in rows.tolist()]
            run.append(
                SlotSummary(
                    slot=cell,
                    start=BASE_TIME + cell * SLOT_SECONDS,
                    slot_seconds=SLOT_SECONDS,
                    prefixes=tuple(prefixes),
                    volumes=np.concatenate((heavy, light)),
                    residual_bytes=float(rng.uniform(5e7, 1e8)),
                    monitor=monitor,
                )
            )
        runs[monitor] = run
    return runs
