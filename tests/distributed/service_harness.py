"""The loopback harness the live-collector tests drive.

:class:`ServiceHandle` runs a
:class:`~repro.distributed.service.CollectorService` on a background
thread of the test process, and :func:`publish_summaries` streams one
monitor run into it through a
:class:`~repro.distributed.client.MonitorClient`. ``repro collect``
runs the daemon in its own process and ``repro stream --connect``
publishes through the client, so neither form is needed outside the
tests. ``tests/`` is on the path through ``conftest.py``:
``from distributed.service_harness import ServiceHandle``.
"""

from __future__ import annotations

import asyncio
import threading

from repro.distributed.client import MonitorClient
from repro.distributed.faults import FaultPlan
from repro.distributed.framing import DEFAULT_LINK
from repro.distributed.service import CollectorService
from repro.distributed.summary import SlotSummary


class ServiceHandle:
    """A :class:`CollectorService` on a background thread.

    ``start`` returns once the socket is bound (address in
    :attr:`address`), ``stop`` shuts the loop down and joins the
    thread. Also usable as a context manager.
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


def publish_summaries(
    address: tuple[str, int],
    summaries: list[SlotSummary] | tuple[SlotSummary, ...],
    monitor: str,
    link: str = DEFAULT_LINK,
    timeout: float = 10.0,
    max_inflight: int | None = None,
    retries: int = 0,
    backoff: float = 0.25,
    faults: FaultPlan | None = None,
) -> dict[str, int]:
    """Stream one monitor run into a live collector and disconnect.

    ``retries`` and ``backoff`` are the :class:`MonitorClient` redial
    budget (0 = fail fast). Returns the delivery accounting: summaries
    ``published`` (accepted), ``stale`` (rejected as sealed history)
    and ``skipped`` (dropped client-side below the resume cell), plus
    the ``reconnects`` it took.
    """
    with MonitorClient(
        address,
        monitor,
        link=link,
        timeout=timeout,
        max_inflight=max_inflight,
        retries=retries,
        backoff=backoff,
        faults=faults,
    ) as client:
        for summary in summaries:
            client.publish(summary)
    return {
        "published": client.published,
        "stale": client.stale,
        "skipped": client.skipped,
        "reconnects": client.reconnects,
    }
