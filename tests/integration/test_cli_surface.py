"""The CLI surface, held byte for byte.

Every ``--help`` text, the usage/``error:`` lines of the commonest
mistakes, and ``repro stream``'s stdout on the golden capture are
pinned to text files under ``golden/cli/`` — one file per case, exit
code, stdout and stderr in that order, so a drift reads as a diff of
what an operator sees. Recorded before ``repro/cli.py`` became the
``repro/cli/`` package: a command module that is imported on demand
must not change one byte of what the command prints.

Regenerate after an *intentional* change with::

    PYTHONPATH=src python tests/integration/test_cli_surface.py

and review the diff like any other code change.
"""

import contextlib
import io
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.distributed import CollectorService
from repro.flows.matrix import RateMatrix
from repro.flows.records import TimeAxis
from repro.net.prefix import Prefix
from repro.traffic.packetize import PacketizerConfig, write_pcap

from distributed.service_harness import ServiceHandle
from test_golden_stream import _write_capture

GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "cli"
)
COMMANDS = (
    "simulate",
    "classify",
    "stream",
    "merge",
    "collect",
    "query",
    "offload",
    "figures",
)
_GOLDEN_RUN = "stream golden.pcap --rib golden.rib --slot-seconds 60"
#: case name → command line; every path is relative to the case's
#: working directory, so nothing machine-specific reaches the output
CASES = {
    "help": "--help",
    **{f"help-{name}": f"{name} --help" for name in COMMANDS},
    "no-command": "",
    "unknown-command": "frobnicate",
    "stream-no-input": "stream",
    "stream-missing-pcap": "stream absent.pcap",
    "stream-golden": _GOLDEN_RUN,
    "stream-golden-json": f"{_GOLDEN_RUN} --json",
    "stream-golden-sketch-json": (
        "stream golden.pcap --backend space-saving --capacity 6 --json"
    ),
    # recorded before the sampler re-chunked what it keeps: an exact
    # table's answer must not depend on how kept rows are batched
    **{
        f"stream-golden-sampled-{mode}-json": (
            f"stream golden.pcap --sample-rate 10 --sample-mode {mode} --json"
        )
        for mode in ("deterministic", "probabilistic", "flow-records")
    },
    # recorded before the full-table admission kernels were rewritten:
    # a K = 8 table over 100 heavy-tailed flows is full and churning on
    # every batch, so each answer rides on the tournament's tie-breaks;
    # the Bloom gate turns away a good share of the capture's bytes
    **{
        f"stream-churn-space-saving{suffix}-json": (
            f"stream churn.pcap --backend space-saving --capacity 8"
            f"{flags} --json"
        )
        for suffix, flags in (
            ("", ""),
            ("-shards2", " --shards 2"),
            ("-bloom", " --admission bloom"),
            # recorded later: a gate in front of each of two shards
            ("-shards2-bloom", " --shards 2 --admission bloom"),
        )
    },
}
REFUSED_QUERY = "query-negative-since-cell"

# argparse's help formatter was rewritten in 3.13 (usage wrapping,
# option grouping); the recording is of the 3.11/3.12 one
pytestmark = pytest.mark.skipif(
    sys.version_info >= (3, 13),
    reason="golden help texts are argparse 3.11/3.12 output",
)


def _run(argv):
    """``main(argv)`` as a shell sees it: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: --help and usage errors
            code = exc.code
    return _render(code, out.getvalue(), err.getvalue())


def _run_refused_query():
    """The daemon refuses ``--since-cell -1``; the CLI says so once."""
    with ServiceHandle(CollectorService()) as handle:
        host, port = handle.address
        return _run(["query", f"{host}:{port}", "--since-cell", "-1"])


def _render(code, out, err):
    return f"exit {code}\n--- stdout\n{out}--- stderr\n{err}"


def _golden_path(name):
    return os.path.join(GOLDEN_DIR, f"{name}.txt")


def _write_churn_capture(path):
    """100 Pareto-rate /16 flows over 8 slots: mostly mice, few heavy."""
    rng = np.random.default_rng(2027)
    prefixes = [Prefix.parse(f"10.{i}.0.0/16") for i in range(100)]
    rates = 8e2 * (1.0 + rng.pareto(1.2, size=(len(prefixes), 8)))
    matrix = RateMatrix(prefixes, TimeAxis(0.0, 60.0, 8), rates)
    write_pcap(matrix, path, PacketizerConfig(seed=7))


def _write_inputs(path):
    """The capture files and the RIB, by the names ``CASES`` uses."""
    prefixes, _ = _write_capture(os.path.join(path, "golden.pcap"))
    with open(os.path.join(path, "golden.rib"), "w") as stream:
        stream.writelines(f"{prefix}\n" for prefix in prefixes)
    _write_churn_capture(os.path.join(path, "churn.pcap"))


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-surface")
    _write_inputs(str(path))
    return path


@pytest.fixture
def workdir(inputs_dir, monkeypatch):
    """Run in the inputs' directory, on an 80-column terminal."""
    monkeypatch.chdir(inputs_dir)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to it


def _assert_recorded(name, got):
    with open(_golden_path(name)) as stream:
        golden = stream.read()
    assert got == golden, (
        f"case {name!r} drifted from golden/cli/{name}.txt; if the "
        "change is intentional, regenerate with `PYTHONPATH=src python "
        "tests/integration/test_cli_surface.py` and review the diff"
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_matches_recording(name, workdir):
    _assert_recorded(name, _run(CASES[name].split()))


def test_refused_query_is_one_error_line(workdir):
    _assert_recorded(REFUSED_QUERY, _run_refused_query())


def test_python_dash_m_is_the_same_program(workdir):
    # PYTHONPATH may be relative to the directory pytest started in
    src = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "repro", "--help"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    _assert_recorded(
        "help", _render(done.returncode, done.stdout, done.stderr)
    )


if __name__ == "__main__":  # regenerate the recordings
    import tempfile

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as scratch:
        _write_inputs(scratch)
        os.chdir(scratch)
        recorded = {name: _run(CASES[name].split()) for name in CASES}
        recorded[REFUSED_QUERY] = _run_refused_query()
    for name, text in recorded.items():
        with open(_golden_path(name), "w") as stream:
            stream.write(text)
        print(f"recorded {name}")
