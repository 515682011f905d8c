"""Chaos suite: every recovery path under deterministic injected faults.

The acceptance bar for the resilience layer, end to end:

- a collector killed mid-run (``SIGKILL``, no cleanup) and restarted
  from ``--state-dir`` — with monitors reconnecting through
  ``MonitorClient(retries=…)`` — answers ``query`` field-for-field
  identically to an uninterrupted run and to the offline ``merge_runs``
  baseline;
- a ``parallel_ingest`` fleet that loses a worker — in any crash
  mode, under either start method, before or after the caller holds a
  summary of it, or while a send waits on its full ring — ends the run
  in seconds with one ``ReproError`` naming the worker, no child left
  running and no ``/dev/shm`` segment left behind;
- severed/corrupted/black-holed client sockets either recover to the
  exact uninterrupted answers or degrade to the exact partial ones.

Every fault here comes from a :class:`FaultPlan`, or (the late worker
crash) from patches a forked worker inherits — nothing is
timing-dependent beyond "the collector noticed the socket died".
"""

import multiprocessing
import os
import pickle
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.distributed import FaultPlan, parallel_ingest, runner
from repro.distributed.checkpoint import WAL_NAME, CheckpointStore
from repro.distributed.framing import DEFAULT_LINK
from repro.distributed.client import MonitorClient, query_service
from repro.distributed.service import CollectorService
from repro.errors import (
    ClassificationError,
    PcapFormatError,
    ReproError,
    ServiceProtocolError,
)
from repro.pipeline.aggregator import StreamingAggregator
from repro.pipeline.sources import ArrayPacketSource
from repro.pipeline.spec import PipelineSpec
from repro.routing.lpm import FixedLengthResolver
from distributed.service_harness import ServiceHandle, publish_summaries
from test_runner import assert_no_ring_segments

REPO_ROOT = Path(__file__).resolve().parents[2]
MONITORS = ("mon-a", "mon-b", "mon-c")  # matches the chaos_runs fixture


def assert_matches_offline(report, expected):
    """Field-for-field equality on the merged answers."""
    assert report["slots"] == expected["slots"]
    assert report["elephants_by_slot"] == expected["elephants_by_slot"]
    assert report["elephants"] == expected["elephants_by_slot"][-1]
    assert report["residual_fraction"] == pytest.approx(
        expected["residual_fraction"]
    )


def stream_round_robin(clients, monitor_runs, lo=0, hi=None):
    limit = max(len(run) for run in monitor_runs)
    for cell in range(lo, limit if hi is None else hi):
        for run, client in zip(monitor_runs, clients):
            if cell < len(run):
                client.publish(run[cell])
                client.drain()


@pytest.fixture()
def live():
    with ServiceHandle(CollectorService()) as handle:
        yield handle


@pytest.fixture()
def dialed(monkeypatch):
    """Every socket ``socket.create_connection`` hands out, in order."""
    created = []
    real = socket.create_connection

    def tracking(*args, **kwargs):
        sock = real(*args, **kwargs)
        created.append(sock)
        return sock

    monkeypatch.setattr(socket, "create_connection", tracking)
    return created


def fault_frame(where, run):
    """Index of a frame on a monitor's first connection.

    A client sends its hello, one frame per summary, then the BYE.
    """
    return {"hello": 0, "first": 1, "mid": 3, "bye": len(run) + 1}[where]


class TestResilientClient:
    def resilient_fleet(self, address, faults=None):
        return [
            MonitorClient(
                address,
                name,
                retries=20,
                backoff=0.02,
                backoff_cap=0.2,
                faults=faults,
            )
            for name in MONITORS
        ]

    def test_severed_connection_redials_to_equality(
        self, live, chaos_runs, offline
    ):
        plan = FaultPlan.parse("sever:mon-b:4")
        clients = self.resilient_fleet(live.address, faults=plan)
        stream_round_robin(clients, chaos_runs)
        for client in clients:
            client.close()
        assert clients[1].reconnects >= 1
        assert clients[0].reconnects == 0
        assert_matches_offline(
            query_service(live.address), offline(chaos_runs)
        )

    def test_corrupted_frame_redials_to_equality(
        self, live, chaos_runs, offline
    ):
        # frame 2 (the second summary) reaches the collector corrupted;
        # its decoder kills the connection, the client redials and
        # replays the unacked record
        plan = FaultPlan.parse("corrupt:mon-a:2")
        clients = self.resilient_fleet(live.address, faults=plan)
        stream_round_robin(clients, chaos_runs)
        for client in clients:
            client.close()
        assert clients[0].reconnects >= 1
        assert_matches_offline(
            query_service(live.address), offline(chaos_runs)
        )

    def test_blackholed_monitor_dies_and_run_degrades(
        self, live, chaos_runs, offline
    ):
        # after frame 4 every byte mon-c sends vanishes (hello on
        # redial included): cells 0..2 are acked, then the client
        # exhausts its retries — a monitor death the survivors ride out
        plan = FaultPlan.parse("blackhole:mon-c:4")
        survivors = [
            MonitorClient(
                live.address,
                name,
                retries=20,
                backoff=0.02,
                backoff_cap=0.2,
            )
            for name in MONITORS[:2]
        ]
        doomed = MonitorClient(
            live.address,
            "mon-c",
            timeout=0.3,
            retries=1,
            backoff=0.02,
            faults=plan,
        )
        clients = survivors + [doomed]
        died_at = None
        for cell in range(max(len(run) for run in chaos_runs)):
            for run, client in zip(chaos_runs, clients):
                if client is doomed and died_at is not None:
                    continue
                try:
                    client.publish(run[cell])
                    client.drain()
                except OSError:
                    assert client is doomed
                    died_at = cell
                    client.abort()
        assert died_at == 3
        # the collector notices the dropped socket and stops letting
        # mon-c gate the frontier
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            report = query_service(live.address)
            if not report["monitors"]["mon-c"]["connected"]:
                break
            time.sleep(0.02)
        for client in survivors:
            client.close()
        assert_matches_offline(
            query_service(live.address),
            offline([chaos_runs[0], chaos_runs[1], chaos_runs[2][:3]]),
        )

    @pytest.mark.parametrize("where", ["hello", "first", "mid", "bye"])
    @pytest.mark.parametrize("kind", ["sever", "corrupt"])
    def test_fault_on_any_frame_redials_to_equality(
        self, live, chaos_runs, offline, kind, where
    ):
        index = fault_frame(where, chaos_runs[1])
        plan = FaultPlan.parse(f"{kind}:mon-b:{index}")
        clients = self.resilient_fleet(live.address, faults=plan)
        stream_round_robin(clients, chaos_runs)
        for client in clients:
            client.close()
        for run, client in zip(chaos_runs, clients):
            delivered = client.published + client.stale + client.skipped
            assert delivered == len(run)
        if (kind, where) == ("corrupt", "bye"):
            # the collector answers a mangled BYE by hanging up, which
            # is all close() waits for: nothing to redial
            assert clients[1].reconnects == 0
        else:
            assert clients[1].reconnects >= 1
        assert_matches_offline(
            query_service(live.address), offline(chaos_runs)
        )

    @pytest.mark.parametrize(
        "kind, where, error",
        [
            ("sever", "hello", ConnectionError),
            ("sever", "first", ConnectionError),
            ("sever", "mid", ConnectionError),
            ("sever", "bye", ConnectionError),
            ("corrupt", "hello", ServiceProtocolError),
            ("corrupt", "first", ServiceProtocolError),
            ("corrupt", "mid", ServiceProtocolError),
        ],
    )
    def test_without_retries_the_same_fault_is_fatal(
        self, live, chaos_runs, offline, dialed, kind, where, error
    ):
        """``retries=0`` is the pre-merge fail-fast client.

        ``error`` is what that client raised for the same plan (a
        corrupted BYE raised nothing, so it has no row here); the
        collector must be left holding exactly the acked prefix.
        """
        run = chaos_runs[0]
        index = fault_frame(where, run)
        plan = FaultPlan.parse(f"{kind}:mon-a:{index}")
        acked = 0
        with pytest.raises(error):
            with MonitorClient(live.address, "mon-a", faults=plan) as client:
                for summary in run:
                    client.publish(summary)
                    client.drain()
                    acked += 1
        assert acked == max(index - 1, 0)
        collector = live.service.collector
        deadline = time.monotonic() + 5.0
        while collector.any_connected() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not collector.any_connected()
        statuses = collector.monitors.values()
        assert sum(s.slots_received for s in statuses) == acked
        if acked:
            assert_matches_offline(
                query_service(live.address), offline([run[:acked]])
            )
        assert dialed and all(sock.fileno() == -1 for sock in dialed)

    @pytest.mark.parametrize(
        "bad", [{"retries": -1}, {"backoff": -1.0}, {"backoff_cap": -0.5}]
    )
    def test_negative_retry_settings_refused_before_dialing(self, bad):
        # port 9 (discard) is closed: reaching it would raise OSError
        with pytest.raises(ClassificationError, match=">= 0"):
            MonitorClient(("127.0.0.1", 9), "mon-a", **bad)

    def test_backoff_jitter_is_seeded_by_the_client_name(self, monkeypatch):
        """Monitors that lose the same collector redial apart, and one
        monitor's sleeps are the same on every run."""

        def refuse(*args, **kwargs):
            raise ConnectionRefusedError("no collector")

        slept = []
        monkeypatch.setattr(socket, "create_connection", refuse)
        monkeypatch.setattr(time, "sleep", slept.append)

        def sleeps(monitor, link=DEFAULT_LINK):
            slept.clear()
            with pytest.raises(ConnectionRefusedError):
                MonitorClient(("127.0.0.1", 9), monitor, link=link, retries=4)
            return list(slept)

        first = sleeps("mon-a")
        assert len(first) == 4
        assert sleeps("mon-a") == first
        assert sleeps("mon-b") != first
        assert sleeps("mon-a", link="other") != first

    def test_handshake_failure_closes_the_socket(self, live, dialed):
        """Regression: a refused hello must not leak the socket."""
        holder = MonitorClient(live.address, "mon-a")
        with pytest.raises(ServiceProtocolError, match="already"):
            MonitorClient(live.address, "mon-a")
        assert len(dialed) == 2
        assert dialed[1].fileno() == -1  # the refused socket closed
        holder.close()


class TestDelayedAcks:
    def test_delayed_acks_change_nothing_but_latency(
        self, chaos_runs, offline
    ):
        plan = FaultPlan.parse("delay-ack:mon-a:0.01")
        service = CollectorService(faults=plan)
        with ServiceHandle(service) as handle:
            begin = time.monotonic()
            stats = publish_summaries(
                handle.address, chaos_runs[0], monitor="mon-a"
            )
            elapsed = time.monotonic() - begin
            assert stats["published"] == len(chaos_runs[0])
            assert elapsed >= 0.01 * len(chaos_runs[0])
            assert_matches_offline(
                query_service(handle.address),
                offline([chaos_runs[0]]),
            )


class TestCollectorRestart:
    def test_in_process_restart_restores_and_resumes(
        self, tmp_path, chaos_runs, offline
    ):
        state = tmp_path / "state"
        with ServiceHandle(
            CollectorService(state_dir=str(state))
        ) as handle:
            clients = [
                MonitorClient(handle.address, name) for name in MONITORS
            ]
            stream_round_robin(clients, chaos_runs, hi=3)
            for client in clients:
                client.abort()  # die without BYE, like a real crash
        # a second daemon picks the state up on a fresh port
        with ServiceHandle(
            CollectorService(state_dir=str(state))
        ) as handle:
            before = query_service(handle.address)
            assert before["slots"] == 3
            probe = MonitorClient(handle.address, "mon-a")
            # the handshake already tells the monitor where to resume
            assert probe.resume_cell == 3
            probe.abort()
            clients = [
                MonitorClient(
                    handle.address, name, retries=5, backoff=0.02
                )
                for name in MONITORS
            ]
            # replaying from cell 0 is harmless: sealed history is
            # skipped client-side, the rest streams normally
            stream_round_robin(clients, chaos_runs)
            for client in clients:
                client.close()
            assert clients[0].skipped == 3
            assert_matches_offline(
                query_service(handle.address), offline(chaos_runs)
            )

    def test_undecodable_link_name_is_the_torn_tail(
        self, tmp_path, chaos_runs
    ):
        """One byte of a record's link name that is not UTF-8 ends the
        WAL there: the daemon starts on the records before it."""
        state = tmp_path / "state"
        with CheckpointStore(state) as store:
            for summary in chaos_runs[0][:3]:
                store.append(DEFAULT_LINK, summary)
        wal = state / WAL_NAME
        data = bytearray(wal.read_bytes())
        second = 5 + int.from_bytes(data[1:5], "big")  # after frame 1
        data[second + 5 + 2] = 0xFF  # its payload: name length, name
        wal.write_bytes(bytes(data))
        with ServiceHandle(
            CollectorService(state_dir=str(state))
        ) as handle:
            assert query_service(handle.address)["slots"] == 1


def daemon_env():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    current = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src if not current else src + os.pathsep + current
    return env


def start_daemon(listen, state_dir, port_file, extra=(), **popen):
    """A quiet daemon, unless ``popen`` says where its stdout goes."""
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "collect",
            "--listen",
            listen,
            "--state-dir",
            str(state_dir),
            "--port-file",
            str(port_file),
            *(() if "stdout" in popen else ("--quiet",)),
            *extra,
        ],
        env=daemon_env(),
        cwd=str(REPO_ROOT),
        stderr=subprocess.PIPE,
        **{"stdout": subprocess.DEVNULL, **popen},
    )


def wait_for_daemon(port_file, process, deadline=30.0):
    """Wait until the port file names a connectable address."""
    limit = time.monotonic() + deadline
    while time.monotonic() < limit:
        if process.poll() is not None:
            raise AssertionError(
                f"daemon exited early: {process.stderr.read()!r}"
            )
        if port_file.exists():
            host, _, port = port_file.read_text().strip().partition(":")
            try:
                socket.create_connection(
                    (host, int(port)), timeout=0.2
                ).close()
                return host, int(port)
            except OSError:
                pass
        time.sleep(0.05)
    raise AssertionError("daemon never became reachable")


class TestKillRestartAcceptance:
    def test_sigkill_restart_equals_uninterrupted_run(
        self, tmp_path, chaos_runs, offline
    ):
        # the uninterrupted answer: same summaries, no failures
        with ServiceHandle(CollectorService()) as handle:
            clients = [
                MonitorClient(handle.address, name) for name in MONITORS
            ]
            stream_round_robin(clients, chaos_runs)
            for client in clients:
                client.close()
            baseline = query_service(handle.address)

        state = tmp_path / "state"
        port_file = tmp_path / "collector.port"
        daemon = start_daemon("127.0.0.1:0", state, port_file)
        try:
            address = wait_for_daemon(port_file, daemon)
            clients = [
                MonitorClient(
                    address,
                    name,
                    retries=40,
                    backoff=0.05,
                    backoff_cap=0.5,
                )
                for name in MONITORS
            ]
            stream_round_robin(clients, chaos_runs, hi=3)
            # no warning, no cleanup: the daemon is simply gone
            daemon.send_signal(signal.SIGKILL)
            daemon.wait(timeout=10.0)
            daemon = start_daemon(
                f"{address[0]}:{address[1]}", state, port_file
            )
            assert wait_for_daemon(port_file, daemon) == address
            # re-attach the whole fleet before resuming: the frontier
            # gates on attached monitors only, so publishing through
            # the first redialer alone would seal cell 3 without its
            # peers (whose copies would then land as stale)
            assert [c.ensure_connected() for c in clients] == [3, 3, 3]
            stream_round_robin(clients, chaos_runs, lo=3)
            for client in clients:
                client.close()
            assert sum(c.reconnects for c in clients) >= len(clients)
            report = query_service(address)
        finally:
            daemon.send_signal(signal.SIGTERM)
            daemon.wait(timeout=10.0)
        assert_matches_offline(report, offline(chaos_runs))
        # ...and field-for-field against the uninterrupted service
        assert report["elephants_by_slot"] == baseline["elephants_by_slot"]
        assert report["elephants"] == baseline["elephants"]
        assert report["slots"] == baseline["slots"]
        assert report["residual_fraction"] == pytest.approx(
            baseline["residual_fraction"]
        )

    def test_port_file_is_atomic_and_removed_on_exit(
        self, tmp_path, chaos_runs
    ):
        state = tmp_path / "state"
        port_file = tmp_path / "collector.port"
        daemon = start_daemon(
            "127.0.0.1:0", state, port_file, extra=("--once", "1")
        )
        try:
            address = wait_for_daemon(port_file, daemon)
            # written via temp + rename: no half-written sibling left
            assert not (tmp_path / "collector.port.tmp").exists()
            host, _, port = port_file.read_text().strip().partition(":")
            assert (host, int(port)) == address
            publish_summaries(address, chaos_runs[0], monitor="mon-a")
            daemon.wait(timeout=15.0)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=10.0)
        assert daemon.returncode == 0
        assert not port_file.exists()

    def test_sigint_removes_the_port_file(self, tmp_path):
        state = tmp_path / "state"
        port_file = tmp_path / "collector.port"
        daemon = start_daemon("127.0.0.1:0", state, port_file)
        try:
            wait_for_daemon(port_file, daemon)
            daemon.send_signal(signal.SIGINT)
            daemon.wait(timeout=10.0)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=10.0)
        assert daemon.returncode == 0
        assert not port_file.exists()

    def test_sigint_stops_a_daemon_that_inherited_it_ignored(self, tmp_path):
        """What `repro collect ... &` gets from a non-interactive shell."""
        port_file = tmp_path / "collector.port"
        daemon = start_daemon(
            "127.0.0.1:0",
            tmp_path / "state",
            port_file,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
        )
        try:
            wait_for_daemon(port_file, daemon)
            daemon.send_signal(signal.SIGINT)
            daemon.wait(timeout=10.0)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=10.0)
        assert daemon.returncode == 0
        assert not port_file.exists()

    def test_sigterm_is_a_clean_stop(self, tmp_path, chaos_runs):
        """SIGTERM — systemd, `docker stop`, `kill` — ends the daemon as
        `--once` does: service stopped (the WAL folded into its
        snapshot), port file gone, the closing line, exit 0; and the
        next daemon on the state dir answers as this one did."""
        state = tmp_path / "state"
        port_file = tmp_path / "collector.port"
        daemon = start_daemon(
            "127.0.0.1:0", state, port_file, stdout=subprocess.PIPE
        )
        try:
            address = wait_for_daemon(port_file, daemon)
            publish_summaries(address, chaos_runs[0][:2], monitor="mon-a")
            before = query_service(address)
            daemon.send_signal(signal.SIGTERM)
            said, _ = daemon.communicate(timeout=10.0)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=10.0)
        assert daemon.returncode == 0
        assert not port_file.exists()
        assert said.endswith(
            b"collector done: 1 monitor runs, 1 links, 2 slots sealed\n"
        )
        daemon = start_daemon("127.0.0.1:0", state, port_file)
        try:
            after = query_service(wait_for_daemon(port_file, daemon))
        finally:
            daemon.send_signal(signal.SIGTERM)
            daemon.wait(timeout=10.0)
        assert daemon.returncode == 0
        assert before["slots"] == 2
        for key in ("slots", "next_cell", "elephants_by_slot", "series"):
            assert after[key] == before[key], key


SLOT_SECONDS = 60.0


FLEET_FLOWS = 30


FLEET_CHUNK = 600


def fleet_trace(seed=9):
    """The capture every fleet run here reads: 4,000 packets, 240 s."""
    rng = np.random.default_rng(seed)
    packets = 4000
    stamps = np.sort(rng.uniform(0.0, 240.0, packets))
    flow = rng.integers(0, FLEET_FLOWS, packets)
    dests = (10 << 24) | (flow << 16) | 5
    sizes = (rng.pareto(1.3, packets) * 250 + 64).clip(64, 1500)
    return stamps, dests, sizes.astype(np.int64)


def fleet_run(
    workers=2,
    seed=9,
    ring_slots=None,
    wrap=None,
    resolver=None,
    spec_fields=None,
    **kwargs,
):
    """One small capture through a fleet. ``wrap`` gets the source
    (which now runs in this process) before the fleet does;
    ``spec_fields`` add to the fleet's :class:`PipelineSpec`."""
    source = ArrayPacketSource(*fleet_trace(seed), chunk_packets=FLEET_CHUNK)
    spec = PipelineSpec(
        workers=workers, ring_slots=ring_slots, **(spec_fields or {})
    )
    return parallel_ingest(
        source if wrap is None else wrap(source),
        FixedLengthResolver(16) if resolver is None else resolver,
        spec=spec,
        slot_seconds=SLOT_SECONDS,
        **kwargs,
    )


def run_bytes(result):
    return [
        [summary.to_bytes() for summary in run] for run in result.runs
    ]


def assert_no_orphans():
    import multiprocessing

    assert multiprocessing.active_children() == []


@pytest.mark.usefixtures("wall_clock_bound")
class TestWorkerCrashAborts:
    """A dead worker ends the run: one ``ReproError`` naming it, every
    child reaped and every ring unlinked, under either start method."""

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    @pytest.mark.parametrize(
        "plan, error",
        [
            ("worker:0", r"in worker0: injected worker fault$"),
            ("worker:1:hard", r"worker 1 exited without finishing"),
            ("worker:0:midslot", r"worker 0 exited without finishing"),
        ],
        ids=["clean", "hard", "midslot"],
    )
    def test_each_crash_mode_aborts_cleanly(
        self, monkeypatch, method, plan, error
    ):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method here")
        monkeypatch.setenv(runner.START_METHOD_ENV, method)
        with pytest.raises(ReproError, match=error):
            fleet_run(faults=FaultPlan.parse(plan))
        assert_no_orphans()
        assert_no_ring_segments()

    def test_reader_crash_always_aborts(self):
        with pytest.raises(ReproError, match="reader"):
            fleet_run(faults=FaultPlan.parse("reader"))
        assert_no_orphans()


@pytest.mark.usefixtures("wall_clock_bound")
class TestLateWorkerCrash:
    """Worker 0 dies once the caller has absorbed its first summary:
    what it delivered does not save the run, which aborts all the
    same. Patches of ``_Fleet.absorb`` (in this process) and
    ``StreamingAggregator.ingest`` (inherited by the forked workers)
    place the crash; no fault directive can, since every directive
    fires before the first seal."""

    @pytest.mark.parametrize(
        "spec_fields",
        [{}, {"backend": "space-saving", "capacity": 16}],
        ids=["exact", "space-saving"],
    )
    def test_abort_after_a_delivered_summary(self, monkeypatch, spec_fields):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("the crash is placed by patches a fork inherits")
        monkeypatch.delenv(runner.START_METHOD_ENV, raising=False)

        context = multiprocessing.get_context("fork")
        absorbed = context.Event()  # the caller holds a worker-0 summary
        delivered = context.Value("i", 0)  # summaries worker 0 shipped
        absorb, ingest = runner._Fleet.absorb, StreamingAggregator.ingest

        def absorbing(fleet, message):
            absorb(fleet, message)
            if message[:2] == ("slot", 0):
                absorbed.set()

        sealed = []  # this process's copy stays empty: it ingests nothing

        def ingesting(aggregator, batch):
            if sealed and multiprocessing.current_process().name == (
                "repro-worker-0"
            ):
                absorbed.wait(timeout=WALL_CLOCK_BOUND)
                delivered.value = len(sealed)
                os._exit(13)
            frames = ingest(aggregator, batch)
            sealed.extend(frames)
            return frames

        monkeypatch.setattr(runner._Fleet, "absorb", absorbing)
        monkeypatch.setattr(StreamingAggregator, "ingest", ingesting)
        with pytest.raises(
            ReproError, match="worker 0 exited without finishing"
        ):
            fleet_run(spec_fields=spec_fields)
        monkeypatch.undo()

        assert absorbed.is_set() and delivered.value >= 1
        assert_no_orphans()
        assert_no_ring_segments()


# -- the hazards that moved into the caller ---------------------------
#
# The process that calls ``parallel_ingest`` is the one that reads,
# resolves and deals, so it is also the one a dead worker's full ring
# would hang. Every test below runs under a wall-clock bound: a hang
# fails the test instead of stalling tier-1.

WALL_CLOCK_BOUND = 60


@pytest.fixture
def wall_clock_bound():
    """SIGALRM raises in the main thread — the thread that deals — so
    an overrun unwinds through ``parallel_ingest``'s own teardown."""

    def expire(signum, frame):
        raise TimeoutError(
            f"no answer within the {WALL_CLOCK_BOUND} s wall-clock bound"
        )

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(WALL_CLOCK_BOUND)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class Observed:
    """A packet source that calls ``watch`` before each batch it hands
    out — from inside the read loop, mid-run."""

    def __init__(self, inner, watch):
        self.inner = inner
        self.chunk_packets = inner.chunk_packets
        self.watch = watch

    def batches(self):
        for batch in self.inner.batches():
            self.watch()
            yield batch


class Truncated:
    """A capture that turns out malformed after ``good`` batches."""

    def __init__(self, inner, good=3):
        self.inner = inner
        self.chunk_packets = inner.chunk_packets
        self.good = good

    def batches(self):
        for index, batch in enumerate(self.inner.batches()):
            if index == self.good:
                raise PcapFormatError("truncated packet record")
            yield batch


@pytest.mark.usefixtures("wall_clock_bound")
class TestCallerReads:
    def test_a_fleet_is_the_caller_and_its_workers(self):
        seen = []

        def watch():
            seen.append(
                sorted(p.name for p in multiprocessing.active_children())
            )

        result = fleet_run(workers=3, wrap=lambda s: Observed(s, watch))
        assert seen and all(
            names == ["repro-worker-0", "repro-worker-1", "repro-worker-2"]
            for names in seen
        )
        assert result.stats.packets_matched == 4000
        assert_no_orphans()

    def test_resolver_is_grown_in_the_calling_process(self):
        resolver = FixedLengthResolver(16)
        fleet_run(resolver=resolver)
        assert len(resolver.prefixes) == FLEET_FLOWS

    def test_full_ring_of_a_dead_worker_aborts_in_seconds(self):
        # one slot, held by the corpse: the next send to worker 0
        # waits on a ring nobody will ever free
        began = time.monotonic()
        with pytest.raises(ReproError, match="worker 0 exited"):
            fleet_run(ring_slots=1, faults=FaultPlan.parse("worker:0:midslot"))
        assert time.monotonic() - began < 15.0
        assert_no_orphans()
        assert_no_ring_segments()

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_source_error_after_dealing_keeps_text_and_cause(
        self, monkeypatch, method
    ):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method here")
        monkeypatch.setenv(runner.START_METHOD_ENV, method)
        with pytest.raises(ReproError) as raised:
            fleet_run(wrap=Truncated)
        assert str(raised.value) == (
            "parallel ingestion failed in reader: truncated packet record"
        )
        assert isinstance(raised.value.__cause__, PcapFormatError)
        assert_no_orphans()
        assert_no_ring_segments()

    def test_spawn_pickles_neither_source_nor_resolver(self, monkeypatch):
        # only the spec, the ring spec and the queues cross a process
        # boundary: a source a spawned reader could not have received
        def wrap(source):
            watched = Observed(source, lambda: None)
            with pytest.raises(Exception, match="pickle"):
                pickle.dumps(watched)
            return watched

        forked = fleet_run(wrap=wrap)
        monkeypatch.setenv("REPRO_RUNNER_START_METHOD", "spawn")
        spawned = fleet_run(wrap=wrap)
        assert run_bytes(spawned) == run_bytes(forked)
        assert spawned.stats == forked.stats
