"""One repetition of a ``mem-*`` workload, in a process of its own.

``python -m perfbench.child WORKDIR KIND`` loads the packet columns the
benchmark generated, runs them through the pipeline ``KIND.json``
describes as many times as it asks for, and prints the last pass's
facts as one JSON object. The program receives only generated inputs:
the arrays and the configuration, never the reference.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from repro.pipeline import PipelineSpec, SamplingSpec, SourceSpec
from repro.routing.lpm import FixedLengthResolver

from perfbench.pipeline import run_pipeline

COLUMNS = ("timestamps", "destinations", "sizes")


def mem_spec(config: dict, columns: list[np.ndarray]) -> PipelineSpec:
    """The pipeline a ``mem-*`` configuration describes."""
    return PipelineSpec(
        backend=config["backend"],
        capacity=config["capacity"],
        shards=config.get("shards", 1),
        admission=config.get("admission", "none"),
        sampling=SamplingSpec(
            rate=config.get("sample_rate", 1), mode="probabilistic"
        ),
        source=SourceSpec.of_arrays(*columns),
    )


def load_columns(workdir: Path) -> list[np.ndarray]:
    return [np.load(workdir / f"{name}.npy") for name in COLUMNS]


def main(argv: list[str]) -> int:
    workdir, kind = Path(argv[0]), argv[1]
    config = json.loads((workdir / f"{kind}.json").read_text())
    columns = load_columns(workdir)
    facts = None
    passes_agree = True
    for _ in range(config["passes"]):
        run = run_pipeline(
            mem_spec(config, columns),
            FixedLengthResolver(config["prefix_length"]),
        )
        if facts is not None:
            passes_agree &= facts["envelope"] == run.envelope
        facts = run.facts()
    facts["passes_agree"] = passes_agree
    json.dump(facts, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
