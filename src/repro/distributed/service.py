"""The live collector service: monitors stream in, queries read out.

:class:`CollectorService` is the network face of the collector. An
asyncio TCP listener accepts any number of monitor connections; each
monitor says hello (name + link), then streams
:class:`~repro.distributed.summary.SlotSummary` records inside the
length-prefixed frames of :mod:`repro.distributed.framing`. The
service merges summaries *incrementally* — a grid cell is sealed the
moment every connected monitor has reported past it — and pushes each
sealed slot through the same
:class:`~repro.distributed.collector.MergedSlotSource` /
:class:`~repro.pipeline.engine.StreamingPipeline` pair the offline
``repro merge`` path uses, so a query against the live service answers
exactly what an offline merge of the same summaries would.

Sealing semantics (the crash/reconnect story):

- Each monitor has a *watermark*, the highest cell it has reported.
  The *frontier* is the lowest watermark among connected monitors;
  cells at or below it cannot change any more and are sealed in order.
- A connected monitor that has sent nothing holds the frontier back —
  better to wait than to merge a slot its data is still in flight for.
- When a monitor drops (cleanly via BYE or by crashing), it stops
  gating the frontier; its unreported intervals merge without it, and
  with ``fill_gaps`` wholly uncovered cells seal as empty gap slots —
  byte-for-byte what ``merge_runs(fill_gaps=True)`` would emit.
- A reconnecting monitor resumes *above* the sealed frontier: the
  hello reply carries ``resume_cell``, anything below it is answered
  with a ``stale`` ack and dropped, so sealed history never mutates.

Backpressure is credit-based and end-to-end: the service merges one
summary at a time per connection and acks only after the merge, while
:class:`~repro.distributed.client.MonitorClient` keeps at most
``max_inflight`` unacked summaries on the wire — a slow collector
therefore stalls its monitors instead of buffering unboundedly. That
window is also the one client's replay buffer: given a redial budget
(``retries``, 0 by default) it rides out a dead transport by redialing
and re-sending it.

Reads are a QUERY frame, ``{"link": name, "since_cell": cell}`` with
both keys optional, answered by one REPLY: the shared result envelope
plus the link's liveness facts (:meth:`LiveLink.report`). ``since_cell``
is a reader saying it already holds every sealed slot below that grid
cell — the ``next_cell`` of its previous reply — so ``elephants_by_slot``
lists the slots sealed since and a poller pays for what is new; every
other field describes the whole link, and the reply's own ``since_cell``
names the cell its first listed slot covers. A query without the key is
answered in full, as is one this link's history cannot continue (the
daemon restarted without state): nothing is kept per reader, the
question carries all the state there is. ``MonitorClient.query`` keeps
the slots it was given and asks for the rest.

This module is the daemon's half: the link state, the asyncio server
and :class:`ServiceHandle`, which runs the service on a background
thread (the test harness). The callers' half — ``MonitorClient``,
``query_service``, ``publish_summaries``, plain blocking sockets — is
:mod:`repro.distributed.client`, a separate module so that
a monitor or a ``repro query`` poll imports neither asyncio nor the
merge machinery it will never run.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable

from repro.core.engine import EngineConfig, Feature, Scheme
from repro.distributed.checkpoint import CheckpointStore
from repro.distributed.collector import (
    MergedSlotSource,
    elephant_entries,
    result_envelope,
)
from repro.distributed.faults import FaultPlan
from repro.distributed.framing import (
    CHUNK_BYTES,
    DEFAULT_LINK,
    DEFAULT_MAX_INFLIGHT,
    KIND_ACK,
    KIND_BYE,
    KIND_ERROR,
    KIND_HELLO,
    KIND_QUERY,
    KIND_REPLY,
    KIND_SUMMARY,
    FrameDecoder,
    decode_json,
    decode_summary,
    encode_json_frame,
    grid_cell,
)
from repro.distributed.merge import (
    estimate_skew_from_totals,
    gap_summary,
    merge_summaries,
    misaligned,
)
from repro.distributed.summary import SlotSummary
from repro.errors import (
    ClassificationError,
    ReproError,
    ServiceProtocolError,
    SummaryFormatError,
)
from repro.pipeline.engine import StreamingPipeline


def _asked_cell(value: object) -> int | None:
    """A QUERY's ``since_cell`` as it came off the wire, checked."""
    if value is None:
        return None
    if type(value) is not int or not 0 <= value < 1 << 63:
        raise ServiceProtocolError(
            "since_cell must be a non-negative integer cell"
        )
    return value


class LiveLink:
    """Incremental merged state for one link.

    Holds the pending (unsealed) cells, per-monitor watermarks, and
    the classifying pipeline; :meth:`add_summary` and :meth:`detach`
    drive :meth:`_advance`, which seals every cell at or below the
    frontier through the identical primitives the offline merge uses.
    """

    def __init__(
        self,
        name: str,
        k: int | None = None,
        fill_gaps: bool = True,
        scheme: Scheme = Scheme.CONSTANT_LOAD,
        feature: Feature = Feature.LATENT_HEAT,
        config: EngineConfig | None = None,
        on_seal: Callable[[SlotSummary], None] | None = None,
    ) -> None:
        self.name = name
        self.k = k
        self.fill_gaps = fill_gaps
        self.scheme = scheme
        self.feature = feature
        self.config = config
        #: Called with each sealed merged summary *before* it is
        #: classified — the durability hook: the checkpoint WAL append
        #: happens here, so by the time the monitor's ack goes out the
        #: slot is already on disk.
        self.on_seal = on_seal
        self.slot_seconds: float | None = None
        self.first_cell: int | None = None
        #: The lowest cell not yet sealed; everything below is history.
        self.next_cell: int | None = None
        #: Unsealed cells: the one summary each monitor sent for it.
        self._pending: dict[int, dict[str, SlotSummary]] = {}
        self._watermark: dict[str, int] = {}
        self._active: set[str] = set()
        #: Monitor names in first-hello order — the run order an
        #: offline ``merge_runs`` (and its skew estimator) would see,
        #: and the order a cell merges in, whichever frame came first.
        self._order: list[str] = []
        self._totals: dict[str, dict[int, float]] = {}
        self._source: MergedSlotSource | None = None
        self._pipeline: StreamingPipeline | None = None
        self._slot_entries: list[list[dict[str, object]]] = []
        #: Beside each sealed slot's entries, the grid cell it covers —
        #: a link that does not fill gaps skips cells, so a slot's
        #: index is not its cell minus the first — and its elephant
        #: count, so a reply's ``series`` walks no history.
        self._slot_cells: list[int] = []
        self._slot_counts: list[int] = []
        self._bytes_total = 0.0
        self._residual_total = 0.0

    @property
    def slots_sealed(self) -> int:
        """Merged slots sealed and classified so far."""
        return len(self._slot_entries)

    def attach(self, monitor: str) -> int | None:
        """Register a (re)connecting monitor; returns its resume cell.

        A second live connection claiming an attached name is a
        protocol error — the first holder is still gating the
        frontier. A *re*attach (after a crash or clean BYE) backfills
        the monitor's watermark to just below the sealed frontier so a
        returning monitor never stalls cells that are already history.
        """
        if monitor in self._active:
            raise ServiceProtocolError(
                f"monitor {monitor!r} is already attached to link "
                f"{self.name!r}"
            )
        self._active.add(monitor)
        self._totals_of(monitor)
        if self.next_cell is not None:
            floor = self.next_cell - 1
            current = self._watermark.get(monitor, floor)
            self._watermark[monitor] = max(current, floor)
        return self.next_cell

    def _totals_of(self, monitor: str) -> dict[int, float]:
        """The monitor's per-cell byte totals; first sight enlists it."""
        if monitor not in self._totals:
            self._order.append(monitor)
            self._totals[monitor] = {}
        return self._totals[monitor]

    def detach(self, monitor: str) -> None:
        """Drop a monitor from frontier gating and re-advance.

        With no monitors left, everything pending seals — the run is
        over as far as this link can tell.
        """
        self._active.discard(monitor)
        self._advance()

    def add_summary(
        self, monitor: str, summary: SlotSummary
    ) -> tuple[int, str]:
        """Accept (or reject as stale) one summary from a monitor.

        Returns ``(cell, status)`` for the ack: ``"ok"`` when the
        summary joined the pending merge, ``"stale"`` when it landed
        at or below sealed history (or re-sent a cell this monitor
        already covered) and was dropped without touching state. A
        summary off the grid, or off the interval its cell's pending
        summaries cover, is refused here — on the connection that sent
        it — rather than failing the merge at seal time.
        """
        seconds = self.slot_seconds or summary.slot_seconds
        if summary.slot_seconds != seconds:
            raise ClassificationError(
                f"monitor {monitor!r} streams a {summary.slot_seconds}s "
                f"grid into link {self.name!r} running "
                f"{self.slot_seconds}s slots"
            )
        cell = grid_cell(summary.start, seconds)
        watermark = self._watermark.get(monitor)
        if (self.next_cell is not None and cell < self.next_cell) or (
            watermark is not None and cell <= watermark
        ):
            return cell, "stale"
        held = self._pending.get(cell)
        if held:
            # merge_summaries demands equal starts within a cell
            start = next(iter(held.values())).start
            aligned = summary.start == start
        else:
            # start + slot * seconds may round an ulp off cell * seconds
            start = cell * seconds
            aligned = abs(summary.start - start) <= 4 * math.ulp(start)
        if not aligned:
            raise misaligned(summary, start, seconds)
        self.slot_seconds = seconds
        self._pending.setdefault(cell, {})[monitor] = summary
        self._watermark[monitor] = cell
        totals = self._totals_of(monitor)
        totals[cell] = totals.get(cell, 0.0) + summary.total_bytes
        self._advance()
        return cell, "ok"

    def _frontier(self) -> int | None:
        """The highest cell guaranteed complete, or None to hold."""
        if self._active:
            watermarks = [
                self._watermark.get(monitor) for monitor in self._active
            ]
            if any(mark is None for mark in watermarks):
                return None
            return min(watermarks)
        if self._pending:
            return max(self._pending)
        return None

    def _advance(self) -> None:
        frontier = self._frontier()
        if frontier is None:
            return
        if self.next_cell is None:
            if not self._pending:
                return
            self.first_cell = min(self._pending)
            self.next_cell = self.first_cell
        while self.next_cell <= frontier:
            cell = self.next_cell
            self.next_cell += 1
            if cell in self._pending:
                held = self._pending.pop(cell)
                merged = merge_summaries(
                    [held[name] for name in self._order if name in held],
                    k=self.k,
                    slot=cell - self.first_cell,
                )
            elif self.fill_gaps:
                merged = gap_summary(cell, self.first_cell, self.slot_seconds)
            else:
                continue
            self._seal(cell, merged)

    def restore(self, run: list[SlotSummary]) -> None:
        """Rebuild sealed state from checkpointed merged summaries.

        ``run`` is the slot-ordered sealed history a
        :class:`~repro.distributed.checkpoint.CheckpointStore`
        recovered for this link. Each summary re-runs the exact
        ``_seal`` path (the pipeline is deterministic, so the
        classified answers equal the pre-crash ones) without
        re-checkpointing; ``next_cell`` lands one past the last sealed
        cell, so a reconnecting monitor resumes exactly where the dead
        collector left off. Per-monitor skew totals are *not*
        persisted: a restored link reports zero skew for pre-restart
        history, by design — only the merged answers must survive.
        """
        for merged in run:
            if self.slot_seconds is None:
                self.slot_seconds = merged.slot_seconds
            cell = grid_cell(merged.start, self.slot_seconds)
            if self.first_cell is None:
                # merged summaries carry slot = cell - first_cell, so
                # the original origin is recoverable from any record
                self.first_cell = cell - merged.slot
            self.next_cell = cell + 1
            self._seal(cell, merged, checkpoint=False)

    def _seal(
        self, cell: int, merged: SlotSummary, checkpoint: bool = True
    ) -> None:
        if checkpoint and self.on_seal is not None:
            # WAL first: a slot acked to a monitor is always on disk,
            # even if the process dies between here and the classify.
            self.on_seal(merged)
        if self._pipeline is None:
            self._source = MergedSlotSource([], slot_seconds=self.slot_seconds)
            self._pipeline = StreamingPipeline(
                self._source,
                scheme=self.scheme,
                feature=self.feature,
                config=self.config,
            )
        event = self._pipeline.observe(self._source.frame_of(merged))
        entries = elephant_entries(event.frame, event.verdict)
        self._slot_entries.append(entries)
        self._slot_cells.append(cell)
        self._slot_counts.append(len(entries))
        self._bytes_total += merged.total_bytes
        self._residual_total += merged.residual_bytes

    def skew_estimate(self) -> dict[str, float]:
        """Per-monitor clock-skew estimate over accepted summaries."""
        if self.slot_seconds is None:
            return {monitor: 0.0 for monitor in self._order}
        totals = [self._totals[monitor] for monitor in self._order]
        estimates = estimate_skew_from_totals(totals, self.slot_seconds)
        return {
            monitor: estimates[index]
            for index, monitor in enumerate(self._order)
        }

    def report(self, since_cell: int | None = None) -> dict[str, object]:
        """The query-visible state of this link.

        The reply is the shared result envelope
        (:func:`~repro.distributed.collector.result_envelope` —
        ``schema``/``spec``/``elephants``/``elephants_by_slot``/
        ``series``, identical field for field to what ``repro
        stream/merge/offload --json`` emit for the same slots) plus
        the service-only liveness facts.

        ``since_cell`` is a reader saying "I hold every sealed slot
        below this cell" (the ``next_cell`` of its previous reply):
        ``elephants_by_slot`` then lists only the slots sealed at or
        above it, and every other field still describes the whole
        link. The reply's own ``since_cell`` is the cell the first
        listed slot covers (``next_cell`` when none is listed). A
        question this link's history cannot be a continuation of —
        none, one below the first sealed cell or one above
        ``next_cell`` — is answered in full, and the field, being the
        first sealed cell then, says so.
        """
        cells = self._slot_cells
        first = 0
        if (
            since_cell is not None
            and cells
            and cells[0] <= since_cell <= self.next_cell
        ):
            first = bisect_left(cells, since_cell)
        report = result_envelope(
            "query",
            {
                "scheme": self.scheme.value,
                "feature": self.feature.value,
                "k": self.k,
                "fill_gaps": self.fill_gaps,
            },
            self._slot_entries,
            first=first,
            counts=self._slot_counts,
        )
        report.update(
            {
                "link": self.name,
                "slot_seconds": self.slot_seconds,
                "slots": self.slots_sealed,
                "next_cell": self.next_cell,
                "since_cell": (
                    cells[first] if first < len(cells) else self.next_cell
                ),
                "pending_cells": sorted(self._pending),
                "residual_fraction": (
                    self._residual_total / self._bytes_total
                    if self._bytes_total
                    else 0.0
                ),
                "skew_estimate": self.skew_estimate(),
            }
        )
        return report


@dataclass
class MonitorStatus:
    """Liveness and accounting for one monitor name on one link."""

    connected: bool = False
    connections: int = 0
    slots_received: int = 0
    stale_slots: int = 0
    last_cell: int | None = None

    def as_dict(self) -> dict[str, object]:
        return {
            "connected": self.connected,
            "connections": self.connections,
            "slots_received": self.slots_received,
            "stale_slots": self.stale_slots,
            "last_cell": self.last_cell,
        }


class LiveCollector:
    """Routes monitors to :class:`LiveLink` state and answers queries.

    Transport-free (and therefore directly unit-testable): the network
    service calls :meth:`attach` / :meth:`add_summary` / :meth:`detach`
    as frames arrive and :meth:`query` for reads.
    """

    def __init__(
        self,
        k: int | None = None,
        fill_gaps: bool = True,
        scheme: Scheme = Scheme.CONSTANT_LOAD,
        feature: Feature = Feature.LATENT_HEAT,
        config: EngineConfig | None = None,
        checkpoint: CheckpointStore | None = None,
    ) -> None:
        self.k = k
        self.fill_gaps = fill_gaps
        self.scheme = scheme
        self.feature = feature
        self.config = config
        self.checkpoint = checkpoint
        self.links: dict[str, LiveLink] = {}
        self.monitors: dict[tuple[str, str], MonitorStatus] = {}
        #: Clean (BYE-terminated) monitor runs completed so far.
        self.runs_completed = 0
        if checkpoint is not None:
            for name in sorted(checkpoint.sealed):
                self.link(name).restore(checkpoint.sealed[name])

    def link(self, name: str) -> LiveLink:
        """The link's live state, created on first reference."""
        if name not in self.links:
            on_seal = None
            if self.checkpoint is not None:
                checkpoint = self.checkpoint

                def on_seal(merged: SlotSummary, _link: str = name) -> None:
                    checkpoint.append(_link, merged)

            self.links[name] = LiveLink(
                name,
                k=self.k,
                fill_gaps=self.fill_gaps,
                scheme=self.scheme,
                feature=self.feature,
                config=self.config,
                on_seal=on_seal,
            )
        return self.links[name]

    def attach(self, monitor: str, link: str) -> int | None:
        resume = self.link(link).attach(monitor)
        status = self.monitors.setdefault((link, monitor), MonitorStatus())
        status.connected = True
        status.connections += 1
        return resume

    def detach(self, monitor: str, link: str, clean: bool) -> None:
        status = self.monitors.get((link, monitor))
        if status is not None:
            status.connected = False
        if link in self.links:
            self.links[link].detach(monitor)
        if clean:
            self.runs_completed += 1

    def add_summary(
        self, monitor: str, link: str, summary: SlotSummary
    ) -> tuple[int, str]:
        cell, outcome = self.links[link].add_summary(monitor, summary)
        status = self.monitors[(link, monitor)]
        if outcome == "ok":
            status.slots_received += 1
            status.last_cell = cell
        else:
            status.stale_slots += 1
        return cell, outcome

    def any_connected(self) -> bool:
        """Is any monitor currently attached, on any link?"""
        return any(status.connected for status in self.monitors.values())

    def query(
        self, link: str | None = None, since_cell: int | None = None
    ) -> dict[str, object]:
        """The report for ``link`` (or the only link, when unnamed).

        ``since_cell`` is :meth:`LiveLink.report`'s: the reader holds
        the sealed slots below that cell and is listed the rest.
        """
        names = sorted(self.links)
        if link is None:
            if len(names) == 1:
                link = names[0]
            elif not names:
                raise ServiceProtocolError("the collector has no links yet")
            else:
                raise ServiceProtocolError(
                    f"multiple links live ({', '.join(names)}); "
                    "name one in the query"
                )
        if link not in self.links:
            raise ServiceProtocolError(
                f"unknown link {link!r}; live links: "
                f"{', '.join(names) or 'none'}"
            )
        report = self.links[link].report(since_cell)
        report["monitors"] = {
            monitor: status.as_dict()
            for (owner, monitor), status in sorted(self.monitors.items())
            if owner == link
        }
        report["links"] = names
        return report


class CollectorService:
    """The asyncio TCP server around a :class:`LiveCollector`.

    One handler per connection; the first frame picks the role (hello
    → monitor, query → reader). Protocol violations and corrupt frames
    earn the peer an error frame and a closed connection — the server
    itself keeps serving everyone else. ``once`` ends the service after
    that many clean monitor runs have completed with no monitor still
    attached (the CI smoke-test contract).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        k: int | None = None,
        fill_gaps: bool = True,
        scheme: Scheme = Scheme.CONSTANT_LOAD,
        feature: Feature = Feature.LATENT_HEAT,
        config: EngineConfig | None = None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        once: int | None = None,
        state_dir: str | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.max_inflight = max(1, max_inflight)
        self.once = once
        self.faults = faults if faults is not None else FaultPlan()
        #: Durable sealed-slot store (``--state-dir``); opening it
        #: restores any previous run's sealed history into the
        #: collector before the first connection is accepted.
        self.checkpoint = CheckpointStore(state_dir) if state_dir else None
        self.collector = LiveCollector(
            k=k,
            fill_gaps=fill_gaps,
            scheme=scheme,
            feature=feature,
            config=config,
            checkpoint=self.checkpoint,
        )
        self.address: tuple[str, int] | None = None
        self._server: asyncio.AbstractServer | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._done = asyncio.Event()

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound address."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        return self.address

    async def wait_done(self) -> None:
        """Block until the ``once`` condition is met (forever if unset)."""
        await self._done.wait()

    async def stop(self) -> None:
        """Stop accepting and tear down every live connection."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._writers):
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
        self._writers.clear()
        if self.checkpoint is not None:
            # Fold the WAL into the snapshot on a clean stop; a kill
            # skips this and restore replays the WAL instead.
            self.checkpoint.compact()
            self.checkpoint.close()

    def _maybe_done(self) -> None:
        if (
            self.once is not None
            and self.collector.runs_completed >= self.once
            and not self.collector.any_connected()
        ):
            self._done.set()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        decoder = FrameDecoder()
        monitor: str | None = None
        link: str | None = None
        attached = False
        finished = False
        try:
            while not finished:
                data = await reader.read(CHUNK_BYTES)
                if not data:
                    break
                for kind, payload in decoder.feed(data):
                    if kind == KIND_HELLO:
                        if monitor is not None:
                            raise ServiceProtocolError(
                                "duplicate hello on one connection"
                            )
                        message = decode_json(payload)
                        name = str(message.get("monitor") or "")
                        if not name:
                            raise ServiceProtocolError(
                                "hello without a monitor name"
                            )
                        link = str(message.get("link") or DEFAULT_LINK)
                        resume = self.collector.attach(name, link)
                        monitor, attached = name, True
                        writer.write(
                            encode_json_frame(
                                KIND_REPLY,
                                {
                                    "status": "ok",
                                    "resume_cell": resume,
                                    "max_inflight": self.max_inflight,
                                },
                            )
                        )
                        await writer.drain()
                    elif kind == KIND_SUMMARY:
                        if not attached:
                            raise ServiceProtocolError(
                                "summary frame before hello"
                            )
                        summary = decode_summary(payload)
                        cell, outcome = self.collector.add_summary(
                            monitor, link, summary
                        )
                        delay = self.faults.ack_delay(monitor)
                        if delay:
                            await asyncio.sleep(delay)
                        writer.write(
                            encode_json_frame(
                                KIND_ACK,
                                {"cell": cell, "status": outcome},
                            )
                        )
                        await writer.drain()
                    elif kind == KIND_QUERY:
                        message = decode_json(payload)
                        requested = message.get("link")
                        report = self.collector.query(
                            str(requested) if requested else None,
                            _asked_cell(message.get("since_cell")),
                        )
                        try:
                            reply = encode_json_frame(
                                KIND_REPLY, {"status": "ok", **report}
                            )
                        except SummaryFormatError as exc:
                            raise ServiceProtocolError(
                                f"{exc}; ask for less: since_cell / repro "
                                "query --since-cell CELL; this link's "
                                f"next_cell is {report['next_cell']}"
                            ) from None
                        writer.write(reply)
                        await writer.drain()
                    elif kind == KIND_BYE:
                        if attached:
                            self.collector.detach(monitor, link, clean=True)
                            attached = False
                            self._maybe_done()
                        finished = True
                        break
                    else:
                        raise ServiceProtocolError(
                            f"unexpected {kind!r} frame from peer"
                        )
        except ReproError as exc:
            with contextlib.suppress(Exception):
                writer.write(
                    encode_json_frame(KIND_ERROR, {"error": str(exc)})
                )
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if attached:
                # EOF or error without BYE: the monitor crashed. It
                # stops gating the frontier; its name may reconnect.
                self.collector.detach(monitor, link, clean=False)
            self._writers.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()


class ServiceHandle:
    """A :class:`CollectorService` on a background thread.

    The in-process harness the loopback tests drive: ``start`` returns
    once the socket is bound (address in :attr:`address`), ``stop``
    shuts the loop down and joins the thread. Also usable as a context
    manager.
    """

    def __init__(self, service: CollectorService) -> None:
        self.service = service
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._error: BaseException | None = None

    @property
    def address(self) -> tuple[str, int]:
        if self.service.address is None:
            raise RuntimeError("service has not started")
        return self.service.address

    def __enter__(self) -> "ServiceHandle":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def start(self, timeout: float = 10.0) -> "ServiceHandle":
        self._thread = threading.Thread(
            target=self._run, name="collector-service", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("collector service did not start in time")
        if self._error is not None:
            raise self._error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surface in start()/stop()
            self._error = exc
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.service.start()
        self._started.set()
        stop_task = asyncio.create_task(self._stop.wait())
        done_task = asyncio.create_task(self.service.wait_done())
        try:
            await asyncio.wait(
                {stop_task, done_task},
                return_when=asyncio.FIRST_COMPLETED,
            )
        finally:
            stop_task.cancel()
            done_task.cancel()
            await self.service.stop()

    def stop(self) -> None:
        if (
            self._loop is not None
            and self._stop is not None
            and self._thread is not None
            and self._thread.is_alive()
        ):
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        if self._error is not None:
            raise self._error


__all__ = [
    "CollectorService",
    "LiveCollector",
    "LiveLink",
    "MonitorStatus",
    "ServiceHandle",
]
