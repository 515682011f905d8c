"""The rate matrix: per-prefix, per-slot average bandwidth.

``x_i(t)`` in the paper — the average bandwidth of the traffic destined
to network prefix ``i`` during slot ``t`` — lives here as a dense
``(num_flows, num_slots)`` float array in bits per second. All
classification and analysis layers consume this structure, whether it
came from real packets (:mod:`repro.flows.aggregate`) or from the fluid
simulator (:mod:`repro.traffic.linksim`).
"""

from __future__ import annotations

import tokenize
import zipfile
import zlib
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ClassificationError, ReproError
from repro.net.prefix import Prefix
from repro.flows.records import TimeAxis


#: How a damaged ``.npz`` fails to load: not a zip, a torn or corrupt
#: deflate stream, an encrypted or unsupported member, a mangled
#: ``.npy`` header, a plain ``.npy`` or a pickle under the name.
_NPZ_FAILURES = (
    OSError,
    EOFError,
    ValueError,
    TypeError,
    RuntimeError,
    NotImplementedError,
    zipfile.BadZipFile,
    zlib.error,
    tokenize.TokenError,
)


def read_npz(
    path: str, what: str, error: type[ReproError]
) -> dict[str, np.ndarray]:
    """Every member of the ``.npz`` archive at ``path``, read now: any
    of the ways a damaged archive fails is one ``error``."""
    try:
        with np.load(path) as archive:
            return {key: archive[key] for key in archive.files}
    except _NPZ_FAILURES as exc:
        raise error(f"cannot load {what} {path!r}: {exc}") from exc


@dataclass
class RateMatrix:
    """Bandwidth series for a set of prefix-flows over a time axis.

    ``rates[i, t]`` is flow ``i``'s average bandwidth in slot ``t``
    (bits/second). Zero means the flow sent nothing in that slot — absent
    flows are rows of zeros, never missing rows, which keeps flow
    identity stable across slots (the classifiers depend on that).
    """

    prefixes: list[Prefix]
    axis: TimeAxis
    rates: np.ndarray

    def __post_init__(self) -> None:
        self.rates = np.asarray(self.rates, dtype=float)
        if self.rates.ndim != 2:
            raise ClassificationError("rates must be a 2-D array")
        if self.rates.shape != (len(self.prefixes), self.axis.num_slots):
            raise ClassificationError(
                f"rates shape {self.rates.shape} does not match "
                f"{len(self.prefixes)} prefixes x {self.axis.num_slots} slots"
            )
        if np.any(self.rates < 0) or not np.all(np.isfinite(self.rates)):
            raise ClassificationError("rates must be finite and non-negative")
        if len(set(self.prefixes)) != len(self.prefixes):
            raise ClassificationError("duplicate prefixes in rate matrix")

    # ------------------------------------------------------------------
    # basic views
    # ------------------------------------------------------------------

    @property
    def num_flows(self) -> int:
        """Number of prefix-flows (rows)."""
        return len(self.prefixes)

    @property
    def num_slots(self) -> int:
        """Number of measurement slots (columns)."""
        return self.axis.num_slots

    def slot_rates(self, slot: int) -> np.ndarray:
        """All flow bandwidths in ``slot`` (read-only view)."""
        if not 0 <= slot < self.num_slots:
            raise ClassificationError(f"slot {slot} out of range")
        return self.rates[:, slot]

    def index_of(self, prefix: Prefix) -> int:
        """Row index of ``prefix``; raises when absent."""
        try:
            return self._prefix_index()[prefix]
        except KeyError:
            raise ClassificationError(
                f"prefix {prefix} not in matrix"
            ) from None

    def _prefix_index(self) -> dict[Prefix, int]:
        if not hasattr(self, "_index_cache"):
            self._index_cache = {
                prefix: row for row, prefix in enumerate(self.prefixes)
            }
        return self._index_cache

    def iter_slots(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(slot, rates_in_slot)`` in time order."""
        for slot in range(self.num_slots):
            yield slot, self.rates[:, slot]

    # ------------------------------------------------------------------
    # aggregate statistics
    # ------------------------------------------------------------------

    def total_per_slot(self) -> np.ndarray:
        """Total link load per slot (sum over flows), bits/second."""
        return self.rates.sum(axis=0)

    def active_per_slot(self) -> np.ndarray:
        """Number of flows with non-zero traffic per slot."""
        return (self.rates > 0).sum(axis=0)

    def ever_active_mask(self) -> np.ndarray:
        """Boolean mask of flows that sent any traffic at all."""
        return (self.rates > 0).any(axis=1)

    def mean_utilization(self, capacity_bps: float) -> float:
        """Average link utilisation against ``capacity_bps``."""
        if capacity_bps <= 0:
            raise ClassificationError("capacity must be positive")
        return float(self.total_per_slot().mean() / capacity_bps)

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------

    def rebin(self, factor: int) -> "RateMatrix":
        """Merge ``factor`` consecutive slots by averaging their rates.

        Averaging (not summing) is correct for *bandwidths*: a flow
        sending 1 Mb/s in each of two 5-minute slots sends 1 Mb/s over
        the merged 10-minute slot. Used by the T ∈ {1, 5, 10} minute
        ablation.
        """
        coarse_axis = self.axis.rebin(factor)
        usable = coarse_axis.num_slots * factor
        reshaped = self.rates[:, :usable].reshape(
            self.num_flows, coarse_axis.num_slots, factor
        )
        return RateMatrix(
            list(self.prefixes), coarse_axis, reshaped.mean(axis=2)
        )

    def window(self, first_slot: int, num_slots: int) -> "RateMatrix":
        """Restrict to a contiguous slot window."""
        sub_axis = self.axis.window(first_slot, num_slots)
        return RateMatrix(
            list(self.prefixes),
            sub_axis,
            self.rates[:, first_slot : first_slot + num_slots].copy(),
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def save_npz(self, path: str) -> None:
        """Persist to a compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            rates=self.rates,
            networks=np.array(
                [p.network for p in self.prefixes], dtype=np.uint32
            ),
            lengths=np.array(
                [p.length for p in self.prefixes], dtype=np.uint8
            ),
            axis=np.array(
                [
                    self.axis.start,
                    self.axis.slot_seconds,
                    float(self.axis.num_slots),
                ]
            ),
        )

    @classmethod
    def load_npz(cls, path: str) -> "RateMatrix":
        """Load a matrix written by :meth:`save_npz`; a member missing or
        of the wrong shape is a :class:`ClassificationError`."""
        data = read_npz(path, "matrix", ClassificationError)
        try:
            start, slot_seconds, num_slots = data["axis"]
            prefixes = [
                Prefix(int(network), int(length))
                for network, length in zip(data["networks"], data["lengths"])
            ]
            axis = TimeAxis(float(start), float(slot_seconds), int(num_slots))
            return cls(prefixes, axis, data["rates"].astype(float))
        except (KeyError, ValueError, TypeError) as exc:
            raise ClassificationError(
                f"matrix {path!r} is malformed: {exc}"
            ) from exc

    def save_csv(self, path: str) -> None:
        """Export as CSV for interop with external tooling.

        Header row: ``prefix,<slot start timestamps...>``; one row per
        flow with bandwidths in bits/second. The axis is recoverable
        from the header timestamps, which are therefore written at full
        precision — rounding them (the old ``.3f`` format) made
        sub-millisecond slot lengths round-trip to a wrong inferred
        axis.
        """
        times = self.axis.slot_times()
        with open(path, "w") as stream:
            header = ",".join(["prefix"] + [repr(float(t)) for t in times])
            stream.write(header + "\n")
            for prefix, row in zip(self.prefixes, self.rates):
                cells = ",".join(f"{rate:.6g}" for rate in row)
                stream.write(f"{prefix},{cells}\n")

    @classmethod
    def load_csv(cls, path: str) -> "RateMatrix":
        """Load a matrix written by :meth:`save_csv`.

        The slot length is inferred from the header timestamps; a
        single-slot file cannot carry that information and is rejected.
        """
        with open(path) as stream:
            header = stream.readline().strip()
            columns = header.split(",")
            if columns[0] != "prefix" or len(columns) < 3:
                raise ClassificationError(
                    "CSV must start with 'prefix' and >= 2 slot columns"
                )
            times = np.array([float(cell) for cell in columns[1:]])
            steps = np.diff(times)
            if not np.allclose(steps, steps[0]):
                raise ClassificationError("slot timestamps must be regular")
            prefixes = []
            rows = []
            for line in stream:
                line = line.strip()
                if not line:
                    continue
                cells = line.split(",")
                prefixes.append(Prefix.parse(cells[0]))
                rows.append([float(cell) for cell in cells[1:]])
            axis = TimeAxis(float(times[0]), float(steps[0]), times.size)
            return cls(prefixes, axis, np.array(rows, dtype=float))
