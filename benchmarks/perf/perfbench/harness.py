"""What every workload shares: sizes, checks, child processes, timing.

Sizes are constants (:data:`FULL` is what ``BENCHMARK.json`` is
measured at); nothing is scaled at run time. A repetition of a
workload runs in a fresh child process and is timed from the moment
the process is started to the moment its answer is parsed. A run
repeats for the ``--seconds`` it was given (never fewer than
``min_reps`` times) and reports its **fastest** repetition: on a shared
box the noise is one-sided — a neighbour can only slow a repetition
down, for seconds at a time — so the fastest of several is far steadier
from run to run than their median, and a cold first repetition needs no
separate warm-up.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = PERF_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"
#: Generated inputs live here, inside the checkout and git-ignored;
#: each run works in its own ``mkdtemp`` below it and removes it.
WORK_ROOT = PERF_DIR / ".work"

#: A child that has not answered after this long is killed, which
#: fails its repetition instead of hanging the run.
CHILD_TIMEOUT_SECONDS = 120.0

#: How long processes that outlive the run (a ``multiprocessing``
#: resource tracker ends a moment *after* the process it served) may
#: take to end once :func:`supervise` has told them to.
LINGER_SECONDS = 5.0
_PR_SET_CHILD_SUBREAPER = 36


@dataclass(frozen=True)
class Sizes:
    """Input sizes and repetition counts of every workload."""

    # pcap-exact
    pcap_packets: int = 1_000_000
    pcap_flows: int = 40_000
    pcap_slots: int = 12
    pcap_zipf: float = 1.0
    rib_routes: int = 100_000
    # mem-sketch-churn and mem-sampled-bloom share one trace
    mem_packets: int = 2_000_000
    mem_flows: int = 50_000
    mem_slots: int = 12
    mem_zipf: float = 1.0
    mem_capacity: int = 512
    churn_passes: int = 2
    sample_rate: int = 50
    sampled_passes: int = 16
    # fleet-2w
    fleet_packets: int = 1_000_000
    fleet_flows: int = 50_000
    fleet_slots: int = 20
    fleet_zipf: float = 1.1
    fleet_capacity: int = 1024
    fleet_workers: int = 2
    # collector-live
    ingest_cells: int = 100
    mixed_cells: int = 40
    summary_entries: int = 1024
    summary_elephants: int = 100
    ack_probe_cells: int = 100
    # how a run repeats
    setups: int = 5
    min_reps: int = 3


FULL = Sizes()


@dataclass
class Checks:
    """Correctness checks attempted and failed, by name."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def fail_all(self, names: tuple[str, ...], detail: str) -> None:
        """A repetition with no answer fails every check it owed."""
        for name in names:
            self.check(name, False, detail)


@dataclass
class Child:
    """One finished child process."""

    seconds: float
    peak_rss_mb: float
    returncode: int


def child_env() -> dict[str, str]:
    """The environment children run in: ``src`` and this package."""
    env = dict(os.environ)
    paths = [str(SRC_DIR), str(PERF_DIR)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def repro_command(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


#: Runs a command as its own child and reports, on the descriptor
#: named first, when it started it, how it exited and the ``wait4``
#: peak RSS. A process inherits its parent's high-water mark across
#: ``exec``; launched from this small interpreter instead of from the
#: benchmark (which holds the generated trace) the mark is the
#: program's own.
_LAUNCHER = """
import json, os, subprocess, sys, time
os.setpgid(0, 0)
started = time.perf_counter()
process = subprocess.Popen(sys.argv[2:])
_, status, usage = os.wait4(process.pid, 0)
report = [started, os.waitstatus_to_exitcode(status), usage.ru_maxrss]
os.write(int(sys.argv[1]), json.dumps(report).encode())
"""


def run_child(command: list[str]) -> tuple[Child, dict | None]:
    """Run ``command`` to completion; time it through the parse.

    Returns the child and the JSON object it printed (``None`` when it
    exited non-zero or printed something else).

    The clock starts when the launcher starts the program (both ends
    read the system-wide monotonic clock) and stops once the answer on
    its standard output is parsed. ``peak_rss_mb`` is the largest
    resident set in the program's process tree (``wait4`` folds in the
    descendants it waited for, which covers a worker fleet).

    The launcher leads a process group of its own (what the watchdog
    kills) but stays in the run's session, where :func:`supervise`
    finds whatever the program leaves behind.
    """
    report_read, report_write = os.pipe()
    process = subprocess.Popen(
        [sys.executable, "-S", "-c", _LAUNCHER, str(report_write), *command],
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=REPO_ROOT,
        pass_fds=(report_write,),
    )
    os.close(report_write)
    watchdog = threading.Timer(
        CHILD_TIMEOUT_SECONDS, os.killpg, (process.pid, signal.SIGKILL)
    )
    watchdog.start()
    try:
        stdout, _ = process.communicate()
        with os.fdopen(report_read, "rb") as stream:
            report = stream.read()
    finally:
        watchdog.cancel()
    if process.returncode == 0 and report:
        started, returncode, peak_kb = json.loads(report)
    else:  # the launcher itself died (watchdog): no report
        started, returncode, peak_kb = time.perf_counter(), -1, 0
    answer = None
    if returncode == 0:
        try:
            answer = json.loads(stdout)
        except ValueError:
            pass
    if not isinstance(answer, dict):
        answer = None
    seconds = time.perf_counter() - started
    return Child(seconds, peak_kb / 1024.0, returncode), answer


def _reap() -> bool:
    """Reap every child that has ended; whether any child is left.

    Once this process is a subreaper every descendant ends up its
    child, so "no child left" is "nothing left".
    """
    while True:
        try:
            if os.waitpid(-1, os.WNOHANG)[0] == 0:
                return True
        except ChildProcessError:
            return False


def _alive(session: int) -> list[int]:
    """The live processes below this one, from ``/proc``.

    "Below" is by ancestry or — what is left to go by should the
    kernel have refused to make this process a subreaper — by the
    session the run was started in.
    """
    me = os.getpid()
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # state, parent, process group, session follow "(command)"
        state, parent, _, sid = stat.rpartition(")")[2].split()[:4]
        table[int(entry)] = (state, int(parent), int(sid))

    def below(pid: int) -> bool:
        while pid in table:
            pid = table[pid][1]
            if pid == me:
                return True
        return False

    return [
        pid
        for pid, (state, _, sid) in table.items()
        if state != "Z" and pid != me and (sid == session or below(pid))
    ]


def _end(session: int) -> None:
    """SIGTERM what is left, wait, SIGKILL what is left then.

    A resource tracker ignores SIGTERM and ends by itself once the
    processes it served are gone, having unlinked the shared-memory
    segments they left; so everything else is told to go first.
    """
    for signum in (signal.SIGTERM, signal.SIGKILL):
        for pid in _alive(session):
            try:
                os.kill(pid, signum)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + LINGER_SECONDS
        while time.monotonic() < deadline:
            if not (_reap() or _alive(session)):
                return
            time.sleep(0.002)


def supervise(main) -> int:
    """Run ``main`` in a child; return once nothing it started is left.

    A process the run starts can outlive it without being a leak: the
    resource tracker ``multiprocessing`` forks for a shared-memory ring
    ends only when the process it serves has closed its pipe, that is
    after ``repro stream --workers`` (or a traced run calling
    ``parallel_ingest`` itself) has exited. So the run happens in a
    forked child that leads a session of its own, and this process
    adopts its orphans (``PR_SET_CHILD_SUBREAPER``) and sees each of
    them end (:func:`_end`) — also when it is itself told to terminate.
    """
    try:
        ctypes.CDLL(None).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # the session below still finds them
    sys.stdout.flush()
    sys.stderr.flush()
    run = os.fork()
    if run == 0:
        os.setsid()
        sys.exit(main())

    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    try:
        code = os.waitstatus_to_exitcode(os.waitpid(run, 0)[1])
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        _end(run)
    return code if code >= 0 else 1


def repeat(run_once, seconds: float, sizes: Sizes) -> list:
    """Call ``run_once`` until ``seconds`` are used.

    A repetition is not started when, going by the slowest one so far,
    it would overrun the budget — except to reach ``min_reps``.
    """
    results = []
    slowest = 0.0
    started = time.perf_counter()
    while True:
        before = time.perf_counter()
        results.append(run_once())
        now = time.perf_counter()
        slowest = max(slowest, now - before)
        if len(results) < sizes.min_reps:
            continue
        if now - started + slowest > seconds:
            return results


def summarize(values: list[float]) -> dict[str, float]:
    """``n``/``median``/``min``/``max`` of one metric's repetitions."""
    return {
        "n": len(values),
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
    }

