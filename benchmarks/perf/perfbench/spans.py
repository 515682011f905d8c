"""Benchmark-owned tracing: spans around calls into each layer.

``src/`` carries no probes yet (ROADMAP item 4), so the per-layer
numbers come from proxies the benchmark wraps around *public* objects:
a packet source (timing ``next()`` on ``batches()``), a prefix
resolver (``lookup``) and an aggregation backend (``accumulate`` /
``close_slot``). Spans nest on a stack in the calling thread; a span's
``seconds`` is its **self time** — its interval minus the intervals of
the spans opened inside it — so the spans of one run never sum to more
than the run's wall time. Everything stays in memory until the run
ends.
"""

from __future__ import annotations

import time


class Span:
    """One open interval; ``rows`` may be set before it closes."""

    __slots__ = ("_tracer", "_name", "rows", "_start", "_children")

    def __init__(self, tracer: "Tracer", name: str, rows: int) -> None:
        self._tracer = tracer
        self._name = name
        self.rows = rows

    def __enter__(self) -> "Span":
        self._children = 0.0
        self._tracer._stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = time.perf_counter() - self._start
        stack = self._tracer._stack
        stack.pop()
        if stack:
            stack[-1]._children += elapsed
        stage = self._tracer.stages.setdefault(
            self._name, {"seconds": 0.0, "calls": 0, "rows": 0}
        )
        stage["seconds"] += elapsed - self._children
        stage["calls"] += 1
        stage["rows"] += self.rows


class Tracer:
    """Accumulates ``{span: {seconds, calls, rows}}`` for one run."""

    def __init__(self) -> None:
        self.stages: dict[str, dict[str, float]] = {}
        self._stack: list[Span] = []

    def span(self, name: str, rows: int = 0) -> Span:
        return Span(self, name, rows)


class _Untraced:
    """What :func:`span_of` hands out when tracing is off."""

    rows = 0

    def __enter__(self) -> "_Untraced":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


def span_of(tracer: Tracer | None, name: str, rows: int = 0):
    """``tracer.span(...)``, or a no-op context when tracing is off."""
    if tracer is None:
        return _Untraced()
    return tracer.span(name, rows)


class TracedSource:
    """A packet source whose every ``next()`` is one span.

    Wrapped around a sampling front-end whose inner source is also
    traced, the outer span's self time is the sampler alone.
    """

    def __init__(self, inner, tracer: Tracer, name: str) -> None:
        self.inner = inner
        self.chunk_packets = getattr(inner, "chunk_packets", None)
        self._tracer = tracer
        self._name = name

    def batches(self):
        batches = iter(self.inner.batches())
        while True:
            with self._tracer.span(self._name) as span:
                batch = next(batches, None)
                if batch is not None:
                    span.rows = batch.num_packets
            if batch is None:
                return
            yield batch


class TracedResolver:
    """A prefix resolver whose ``lookup`` is the ``lpm.lookup`` span."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self._tracer = tracer

    @property
    def prefixes(self):
        return self.inner.prefixes

    def __len__(self) -> int:
        return len(self.inner)

    def lookup(self, addresses):
        with self._tracer.span("lpm.lookup", rows=len(addresses)):
            return self.inner.lookup(addresses)


class TracedBackend:
    """An aggregation backend timed at ``accumulate``/``close_slot``.

    Everything else (population, residual row, capacity, records)
    forwards to the wrapped backend. ``log``, when given, records each
    call's ``(keys, sizes)`` and each slot close so a layer replay can
    feed the same per-batch work to a bare candidate table.
    """

    def __init__(
        self,
        inner,
        tracer: Tracer,
        name: str = "backends",
        log: list | None = None,
    ) -> None:
        self.inner = inner
        self._tracer = tracer
        self._name = name
        self._log = log

    def __getattr__(self, attribute: str):
        return getattr(self.inner, attribute)

    def accumulate(self, keys, sizes, timestamps, prefix_of) -> None:
        if self._log is not None:
            self._log.append((keys, sizes))
        with self._tracer.span(f"{self._name}.accumulate", rows=keys.size):
            self.inner.accumulate(keys, sizes, timestamps, prefix_of)

    def close_slot(self):
        if self._log is not None:
            self._log.append(None)
        with self._tracer.span(f"{self._name}.close_slot") as span:
            vector = self.inner.close_slot()
            span.rows = vector.size
        return vector
