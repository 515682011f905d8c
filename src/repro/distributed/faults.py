"""Deterministic fault injection for the distributed stack.

Every failure path in this package — a fleet's abort on a dead
worker, client reconnect with backoff, collector checkpoint/restore —
exists because some process or socket dies in production. Testing
those paths by hand-rolling ad-hoc monkeypatches per test scales
badly, so this module centralises the failure vocabulary: a
:class:`FaultPlan` is a declarative list of failures to inject, parsed
from a compact directive string and threaded through the runner
(``parallel_ingest(..., faults=)``, whose caller hands each worker
the crash mode its rule names), the service
(``CollectorService(..., faults=)``) and the one monitor client
(``MonitorClient(..., faults=)``, which resolves its per-monitor state
once so one-shot faults span its redials). The same plan object
drives a unit test, the loopback chaos harness, and — via the
``REPRO_FAULT_PLAN`` environment variable, the only one the CLI reads
— a real ``repro collect`` daemon or ``repro stream`` fleet in CI.

Directive grammar (comma-separated, one directive per fault)::

    reader                       fail the read loop before its first batch
    worker:<id>                  clean failure (error message, exit)
    worker:<id>:hard             exit without a message
    worker:<id>:midslot          die while holding a ring slot
    sever:<monitor>:<n>          close the client socket after n frames
    blackhole:<monitor>:<n>      silently drop sends after n frames
    delay-ack:<monitor>:<secs>   collector sleeps before each ack
    corrupt:<monitor>:<n>        corrupt the n-th frame the client sends

A dead worker ends its fleet's run, so no directive names a
restart: an ``@`` anywhere in a directive is refused.

Client-side faults act at the socket boundary: :class:`FaultySocket`
wraps a connected socket and consults the plan's per-monitor
:class:`ClientFaultState` on every outbound frame. A severed socket
raises :class:`ConnectionError` exactly as a yanked cable would; a
black hole swallows the bytes so the client's next ack read times
out; a corrupted frame reaches the collector and is rejected by its
:class:`~repro.distributed.framing.FrameDecoder`. All three therefore
exercise the *real* error paths, not simulated ones.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import FaultPlanError

if TYPE_CHECKING:
    import socket

#: A full fault plan, parsed by :meth:`FaultPlan.parse`.
PLAN_ENV = "REPRO_FAULT_PLAN"

_WORKER_MODES = frozenset(("clean", "hard", "midslot"))
_CLIENT_KINDS = frozenset(("sever", "blackhole", "corrupt"))


@dataclass(frozen=True)
class FaultRule:
    """One injected failure.

    ``kind`` is the failure family; ``target`` a worker id (as text),
    monitor name, or ``"reader"``; ``mode`` the worker crash flavour;
    ``after`` the zero-based frame index client faults fire at;
    ``delay`` the ack delay in seconds.
    """

    kind: str
    target: str = ""
    mode: str = "clean"
    after: int = 0
    delay: float = 0.0


def _parse_directive(text: str) -> FaultRule:
    token = text.strip()
    if not token:
        raise FaultPlanError("empty fault directive")
    if "@" in token:
        raise FaultPlanError(
            f"'@' in fault directive {text!r}: a dead worker ends the "
            "run, so no rule names a restart"
        )
    parts = token.split(":")
    kind = parts[0]
    if kind == "reader":
        if len(parts) != 1:
            raise FaultPlanError(f"bad reader directive {text!r}")
        return FaultRule(kind="reader-crash", target="reader")
    if kind == "worker":
        if len(parts) == 2:
            worker, mode = parts[1], "clean"
        elif len(parts) == 3:
            worker, mode = parts[1], parts[2]
        else:
            raise FaultPlanError(f"bad worker directive {text!r}")
        if mode not in _WORKER_MODES:
            raise FaultPlanError(
                f"unknown worker crash mode {mode!r} in {text!r}"
            )
        try:
            int(worker)
        except ValueError:
            raise FaultPlanError(
                f"worker id must be an integer in {text!r}"
            ) from None
        return FaultRule(kind="worker-crash", target=worker, mode=mode)
    if kind in _CLIENT_KINDS:
        if len(parts) != 3:
            raise FaultPlanError(f"bad {kind} directive {text!r}")
        try:
            after = int(parts[2])
        except ValueError:
            raise FaultPlanError(
                f"frame count must be an integer in {text!r}"
            ) from None
        return FaultRule(kind=kind, target=parts[1], after=after)
    if kind == "delay-ack":
        if len(parts) != 3:
            raise FaultPlanError(f"bad delay-ack directive {text!r}")
        try:
            delay = float(parts[2])
        except ValueError:
            raise FaultPlanError(
                f"delay must be a number in {text!r}"
            ) from None
        return FaultRule(kind="delay-ack", target=parts[1], delay=delay)
    raise FaultPlanError(f"unknown fault directive {text!r}")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable set of failures to inject.

    Every rule fires at a fixed frame, worker start or read, so a plan
    draws no random number. The empty plan injects nothing and is safe
    to thread everywhere (every consumer treats ``None`` and the empty
    plan identically).
    """

    rules: tuple[FaultRule, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a comma-separated directive string."""
        rules = tuple(
            _parse_directive(token)
            for token in text.split(",")
            if token.strip()
        )
        return cls(rules=rules)

    @classmethod
    def from_env(cls, environ=None) -> "FaultPlan":
        """The plan named by ``REPRO_FAULT_PLAN``, or the empty plan."""
        environ = os.environ if environ is None else environ
        return cls.parse(environ.get(PLAN_ENV) or "")

    @property
    def is_empty(self) -> bool:
        return not self.rules

    def worker_crash(self, worker_id: int) -> str | None:
        """The crash mode for this worker, if any."""
        for rule in self.rules:
            if rule.kind == "worker-crash" and rule.target == str(worker_id):
                return rule.mode
        return None

    def reader_crash(self) -> bool:
        return any(rule.kind == "reader-crash" for rule in self.rules)

    def ack_delay(self, monitor: str) -> float:
        """Seconds the collector should stall before acking ``monitor``."""
        return sum(
            rule.delay
            for rule in self.rules
            if rule.kind == "delay-ack" and rule.target == monitor
        )

    def client_state(self, monitor: str) -> "ClientFaultState | None":
        """A fresh mutable fault state for one monitor's connection(s).

        Create it once per logical client (not per redial): the frame
        counter and one-shot budgets persist across reconnects, so a
        ``sever`` fires once and the retried connection survives.
        """
        rules = tuple(
            rule
            for rule in self.rules
            if rule.kind in _CLIENT_KINDS and rule.target == monitor
        )
        if not rules:
            return None
        return ClientFaultState(rules=rules)


@dataclass
class ClientFaultState:
    """Mutable one-shot budgets for one monitor's socket faults."""

    rules: tuple[FaultRule, ...]
    frames_sent: int = 0
    fired: set = field(default_factory=set)
    blackholed: bool = False

    def on_send(self, data: bytes) -> tuple[str, bytes]:
        """Decide one outbound frame's fate.

        Returns ``(action, data)`` where action is ``"send"``,
        ``"drop"``, or ``"sever"`` and data is possibly corrupted.
        """
        index = self.frames_sent
        self.frames_sent += 1
        if self.blackholed:
            return "drop", data
        for rule_index, rule in enumerate(self.rules):
            if rule_index in self.fired or index < rule.after:
                continue
            if rule.kind == "sever":
                self.fired.add(rule_index)
                return "sever", data
            if rule.kind == "blackhole":
                self.fired.add(rule_index)
                self.blackholed = True
                return "drop", data
            if rule.kind == "corrupt":
                self.fired.add(rule_index)
                # Flip the kind tag: deterministically rejected by the
                # collector's FrameDecoder (payload corruption could
                # land in a float and pass silently).
                return "send", bytes([data[0] ^ 0xFF]) + data[1:]
        return "send", data

    def wrap(self, sock: socket.socket) -> "FaultySocket":
        """``sock`` behind this state's faults (so a client need not
        import this module)."""
        return FaultySocket(sock, self)


class FaultySocket:
    """A socket wrapper that injects the plan's client-side faults.

    Only outbound frames are manipulated; reads, timeouts and close
    pass straight through. One ``sendall`` call is one frame (the
    client encodes whole frames before sending), so the frame counter
    simply counts calls.
    """

    def __init__(
        self, sock: socket.socket, state: ClientFaultState
    ) -> None:
        self._sock = sock
        self._state = state

    def sendall(self, data: bytes) -> None:
        action, data = self._state.on_send(data)
        if action == "drop":
            return
        if action == "sever":
            self._sock.close()
            raise ConnectionError(
                "injected fault: connection severed mid-stream"
            )
        self._sock.sendall(data)

    def recv(self, bufsize: int) -> bytes:
        return self._sock.recv(bufsize)

    def settimeout(self, timeout: float | None) -> None:
        self._sock.settimeout(timeout)

    def close(self) -> None:
        self._sock.close()


__all__ = [
    "PLAN_ENV",
    "ClientFaultState",
    "FaultPlan",
    "FaultRule",
    "FaultySocket",
]
