"""Every example runs to exit 0.

An example is a reason for code to stay in ``src/``:
``test_reachability.py`` allows ``repro.distributed.partition`` because
``distributed_merge.py`` imports it. So each example runs here as a
reader would run it, in a fresh interpreter with ``PYTHONPATH=src``;
temporary files go under the test's own directory.
"""

import glob
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
EXAMPLES = os.path.join(os.path.dirname(SRC), "examples")

#: the arguments that keep an example to seconds
ARGUMENTS = {"backbone_study.py": ["0.05"]}

#: what ``pcap_pipeline.py`` may write: a laptop-sized capture
MAX_PCAP_BYTES = 50 * 10**6


@pytest.mark.parametrize(
    "example",
    sorted(os.path.basename(path) for path in glob.glob(f"{EXAMPLES}/*.py")),
)
def test_example_exits_zero(example, tmp_path):
    argv = ARGUMENTS.get(example, [])
    pcap = tmp_path / "capture.pcap"
    if example == "pcap_pipeline.py":
        argv = [str(pcap)]
    done = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, example), *argv],
        env={**os.environ, "PYTHONPATH": SRC, "TMPDIR": str(tmp_path)},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
    if example == "pcap_pipeline.py":
        assert 0 < pcap.stat().st_size <= MAX_PCAP_BYTES
