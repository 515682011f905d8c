"""The blocking-socket half of the collector protocol: the callers' side.

:mod:`repro.distributed.service` is the daemon — an asyncio server
around the merge/classify machinery, numpy underneath. This module is
everything that *talks to* one: :class:`MonitorClient` (a monitor's
connection: hello, windowed publishes, replay across redials, queries
that pay for what is new), :func:`query_service` (the one-shot query)
and :func:`parse_address`.
They are plain blocking sockets over the frames of
:mod:`repro.distributed.framing`, so a monitor, a forked worker and the
``repro query`` command need no event loop — and, the split being along
the import boundary, load none: this module imports the standard
library and the framing (the fault plan only to type-check: a plan's
client state wraps its own socket), which is why a ``repro query``
poll starts in a fifth of the time it took beside the daemon's imports.

The protocol itself — sealing, watermarks, ``resume_cell``, credit-based
backpressure, ``since_cell`` — is described once, in the service's
docstring.
"""

from __future__ import annotations

import random
import socket
import time
from collections import deque
from typing import TYPE_CHECKING, Callable, TypeVar

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
    FrameDecoder,
    decode_json,
    encode_frame,
    encode_json_frame,
    encode_summary,
    grid_cell,
)
from repro.errors import (
    AddressError,
    ClassificationError,
    ReproError,
    ServiceProtocolError,
)

if TYPE_CHECKING:
    from repro.distributed.faults import FaultPlan, FaultySocket
    from repro.distributed.summary import SlotSummary


def parse_address(text: str) -> tuple[str, int]:
    """``HOST:PORT`` (or bare ``PORT``) → a connectable address pair."""
    host, _, port_text = text.rpartition(":")
    if not host:
        host = "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise AddressError(f"{text!r} is not a HOST:PORT address") from None
    if not 0 <= port <= 65535:
        raise AddressError(f"port {port} is out of range")
    return host, port


def _query_frame(link: str | None, since_cell: int | None) -> bytes:
    """The QUERY both readers send; ``None`` leaves a field open."""
    return encode_json_frame(
        KIND_QUERY, {"link": link, "since_cell": since_cell}
    )


class _BlockingFrames:
    """Frame-at-a-time reads over a blocking socket."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._decoder = FrameDecoder()
        self._frames: deque[tuple[bytes, bytes]] = deque()

    def next_frame(self) -> tuple[bytes, bytes]:
        while not self._frames:
            data = self._sock.recv(CHUNK_BYTES)
            if not data:
                raise ServiceProtocolError(
                    "the collector closed the connection"
                )
            self._frames.extend(self._decoder.feed(data))
        return self._frames.popleft()

    def expect(self, kind: bytes) -> dict:
        got, payload = self.next_frame()
        if got == KIND_ERROR:
            raise _reported(payload)
        if got != kind:
            raise ServiceProtocolError(
                f"expected a {kind!r} frame, got {got!r}"
            )
        return decode_json(payload)

    def refusal(self) -> ServiceProtocolError | None:
        """The error frame a peer sent before hanging up, if unread:
        the frames still buffered are read until one, or the end."""
        try:
            while True:
                got, payload = self.next_frame()
                if got == KIND_ERROR:
                    return _reported(payload)
        except (OSError, ReproError):
            return None


def _reported(payload: bytes) -> ServiceProtocolError:
    message = decode_json(payload)
    return ServiceProtocolError(
        str(message.get("error") or "collector reported an error")
    )


#: Errors the client's redial budget covers, as transient transport
#: loss. ``OSError`` covers refused/reset/severed sockets and ack-read
#: timeouts; ``ServiceProtocolError`` covers the collector closing the
#: connection mid-stream (EOF reads, error frames) — including the
#: transient "monitor already attached" a fast reconnect sees while
#: the server has not yet reaped the dead connection.
_RETRYABLE = (OSError, ServiceProtocolError)

_T = TypeVar("_T")


class MonitorClient:
    """A monitor's blocking-socket connection to the collector.

    Connects, says hello, then :meth:`publish` streams summaries under
    the credit window the collector granted: at most ``max_inflight``
    summaries ride unacked, so a stalled collector exerts backpressure
    here rather than filling kernel buffers. :meth:`close` drains the
    outstanding acks, sends BYE, and waits for the collector to hang
    up — after it returns, the collector has fully absorbed the run.
    :meth:`abort` slams the socket shut, which is how the tests
    simulate a monitor crash.

    The unacked window is held by reference, so a transport failure
    (see ``_RETRYABLE``) is survivable: every operation gets one try
    plus at most ``retries`` redials, each after a capped exponential
    backoff (``backoff`` doubling up to ``backoff_cap`` seconds,
    jittered by a :class:`random.Random` seeded with the client's own
    ``link`` and ``monitor`` names, so monitors that lose the same
    collector do not redial in lockstep, while each one's sequence is
    reproducible), a fresh handshake and a replay of the window.
    Delivery stays exactly-once *in the collector's accounting*: its
    ``resume_cell`` skip-ahead and stale-ack watermarks absorb any
    replayed duplicate, so the merged answers equal an uninterrupted
    run's. With the budget spent — at once when ``retries`` is 0, the
    fail-fast default — the socket is closed and the transport error
    propagates as it was raised. Counters
    (``published``/``stale``/``skipped``/``reconnects``) aggregate
    across all connections.
    """

    def __init__(
        self,
        address: tuple[str, int],
        monitor: str,
        link: str = DEFAULT_LINK,
        timeout: float = 10.0,
        max_inflight: int | None = None,
        retries: int = 0,
        backoff: float = 0.25,
        backoff_cap: float = 5.0,
        faults: FaultPlan | None = None,
    ) -> None:
        if retries < 0 or backoff < 0 or backoff_cap < 0:
            raise ClassificationError(
                "retries, backoff and backoff_cap must be >= 0"
            )
        self.address = address
        self.monitor = monitor
        self.link = link
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        # a str seed is hashed with sha512: stable across runs and
        # processes, distinct per monitor
        self._rng = random.Random(f"{link}\0{monitor}")
        self._window_cap = max_inflight
        #: One fault state for the client's whole life: frame counters
        #: and one-shot budgets span reconnects, so an injected sever
        #: fires once and the retried connection survives.
        self._faults = (
            faults.client_state(monitor) if faults is not None else None
        )
        #: Summaries handed to :meth:`publish` and not yet acked,
        #: oldest first — what a fresh connection replays. The first
        #: ``inflight`` of them are on the current connection's wire.
        self._unacked: deque[SlotSummary] = deque()
        self.inflight = 0
        self.published = 0
        self.stale = 0
        self.skipped = 0
        #: Redials made, a collector unreachable at start-up included.
        self.reconnects = 0
        self._sock: socket.socket | FaultySocket | None = None
        self._attempt(lambda: None)  # dial in: one try + ``retries`` more

    def __enter__(self) -> "MonitorClient":
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()

    def _connect(self) -> None:
        """One dial: connect, hello, adopt the collector's grant."""
        sock: socket.socket | FaultySocket = socket.create_connection(
            self.address, timeout=self.timeout
        )
        if self._faults is not None:
            sock = self._faults.wrap(sock)
        try:
            frames = _BlockingFrames(sock)
            sock.sendall(
                encode_json_frame(
                    KIND_HELLO, {"monitor": self.monitor, "link": self.link}
                )
            )
            reply = frames.expect(KIND_REPLY)
        except BaseException:
            # A failed handshake (error frame, timeout, EOF) must not
            # leak the connected socket.
            sock.close()
            raise
        self._sock, self._frames = sock, frames
        #: What :meth:`query` has been given over *this* connection,
        #: per link: the first sealed cell, the ``next_cell`` to ask
        #: from, and the entries of every slot sealed below it. A
        #: daemon loses or changes sealed history only by dying, which
        #: kills the socket, so a fresh dial starts from nothing.
        self._history: dict[str, tuple[int | None, int | None, list]] = {}
        resume = reply.get("resume_cell")
        #: First cell the collector will accept; lower cells are sealed
        #: history and are skipped client-side without a round trip.
        self.resume_cell = int(resume) if resume is not None else None
        granted = int(reply.get("max_inflight") or DEFAULT_MAX_INFLIGHT)
        self.max_inflight = max(1, min(granted, self._window_cap or granted))

    def _attempt(self, step: Callable[[], _T]) -> _T:
        """Run ``step`` on a live connection, within the redial budget.

        A dead connection (first use, after :meth:`abort`, after a
        failure) is dialed first. Every step starts by putting the
        unacked window back on the wire, so a failed replay spends
        budget exactly like a failed dial.
        """
        failures = 0
        while True:
            try:
                if self._sock is None:
                    self._connect()
                return step()
            except _RETRYABLE:
                self.abort()
                if failures >= self.retries:
                    raise
            failures += 1
            self.reconnects += 1
            base = min(self.backoff_cap, self.backoff * 2 ** (failures - 1))
            time.sleep(base * (0.5 + 0.5 * self._rng.random()))

    def _pump(self) -> None:
        """Send every windowed summary this connection has not carried.

        A summary below the connection's resume cell is sealed
        history the collector will never ack: it leaves the window,
        counted skipped.
        """
        while self.inflight < len(self._unacked):
            summary = self._unacked[self.inflight]
            cell = grid_cell(summary.start, summary.slot_seconds)
            if self.resume_cell is not None and cell < self.resume_cell:
                del self._unacked[self.inflight]
                self.skipped += 1
                continue
            while self.inflight >= self.max_inflight:
                self._read_ack()
            self._send(encode_summary(summary))
            self.inflight += 1

    def _send(self, frame: bytes) -> None:
        """Send one frame. The daemon answers a frame it refuses with
        an error frame and hangs up; a send that breaks on the hang-up
        raises that error, not the broken pipe."""
        try:
            self._sock.sendall(frame)
        except OSError:
            refusal = self._frames.refusal()
            if refusal is None:
                raise
            raise refusal from None

    def _read_ack(self) -> None:
        message = self._frames.expect(KIND_ACK)
        self._unacked.popleft()
        self.inflight -= 1
        if str(message.get("status")) == "stale":
            self.stale += 1
        else:
            self.published += 1

    def _drain(self) -> None:
        self._pump()
        while self._unacked:
            self._read_ack()

    def _ask(self, link: str, since_cell: int | None) -> dict:
        self._drain()
        self._send(_query_frame(link, since_cell))
        return self._frames.expect(KIND_REPLY)

    def _query(self, link: str) -> dict:
        first, cursor, slots = self._history.get(link, (None, None, []))
        reply = self._ask(link, cursor)
        listed_from = reply.get("since_cell")
        if cursor is None or listed_from is None or listed_from < cursor:
            # the whole history: asked for, or the collector's choice,
            # or a collector that predates since_cell and ignored it
            first, slots = listed_from, []
        slots.extend(reply.get("elephants_by_slot", ()))
        self._history[link] = (first, reply.get("next_cell"), slots)
        reply["elephants_by_slot"] = list(slots)
        if first is not None:
            reply["since_cell"] = first
        return reply

    def _goodbye(self) -> None:
        self._drain()
        self._send(encode_frame(KIND_BYE))
        while self._sock.recv(CHUNK_BYTES):
            pass

    def publish(self, summary: SlotSummary) -> bool:
        """Send one summary (False if skipped as pre-resume history)."""
        self._unacked.append(summary)
        self._attempt(self._pump)
        # the newest summary is sent last and acks retire the oldest,
        # so it either still ends the window or was skipped out of it
        return bool(self._unacked) and self._unacked[-1] is summary

    def drain(self) -> None:
        """Wait out every outstanding ack."""
        self._attempt(self._drain)

    def query(self, link: str | None = None) -> dict:
        """Query over this same connection (outstanding acks drain first).

        Returns the link's whole report, and pays for what is new: the
        client keeps, per link, the sealed slots' entries its earlier
        queries on this connection were given, asks the collector for
        the slots sealed since (``since_cell``), and puts the two
        together — field for field what an unqualified
        :func:`query_service` would answer at that moment. The slot
        lists inside ``elephants_by_slot`` are the retained ones; read
        them, do not edit them. Everything retained is dropped when the
        connection is (:meth:`abort`, a redial): whatever answers next
        may be a collector with another history.
        """
        return self._attempt(lambda: self._query(link or self.link))

    def ensure_connected(self) -> int | None:
        """Probe the transport end-to-end, redialing if it is dead.

        Returns the connection's resume cell. After a collector
        restart, call this on *every* monitor before resuming
        publishes: the frontier gates on currently-attached monitors
        only, so the first monitor to re-attach and publish would seal
        its cells alone and its peers' copies would land as stale.

        The probe is a query from the resume cell — on a connection
        just dialed that lists nothing, however much history the
        collector restored — and its reply is thrown away: what
        :meth:`query` retains is untouched.
        """
        self._attempt(lambda: self._ask(self.link, self.resume_cell))
        return self.resume_cell

    def close(self) -> None:
        """Clean end-of-run: drain, BYE, wait for the collector's EOF."""
        try:
            self._attempt(self._goodbye)
        finally:
            self.abort()

    def abort(self) -> None:
        """Crash: drop the connection with no BYE and no draining."""
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        self.inflight = 0


def query_service(
    address: tuple[str, int],
    link: str | None = None,
    timeout: float = 10.0,
    since_cell: int | None = None,
) -> dict:
    """One-shot query against a live collector service.

    ``since_cell`` — the ``next_cell`` of an earlier reply — asks for
    the slots sealed at or above that cell only; the reply is returned
    as received (see :meth:`LiveLink.report
    <repro.distributed.service.LiveLink.report>`), for a poller that keeps
    its own history.
    """
    with socket.create_connection(address, timeout=timeout) as sock:
        frames = _BlockingFrames(sock)
        sock.sendall(_query_frame(link, since_cell))
        reply = frames.expect(KIND_REPLY)
        sock.sendall(encode_frame(KIND_BYE))
    return reply


__all__ = [
    "MonitorClient",
    "parse_address",
    "query_service",
]
