"""What a name, a package and a command import — as module *sets*.

``repro``'s packages resolve their exports lazily
(:mod:`repro._lazy`) and the CLI imports a command's module when
``argv`` names it, so that a run pays at start-up for what it uses.
These tests pin both halves without timing anything: that every
public spelling still yields the defining module's own object
whatever was imported first, that every module still imports at all
(nothing loads them eagerly any more), and which modules a command
leaves unloaded. Import state is process-wide, so every case runs in a
fresh interpreter.
"""

import ast
import dataclasses
import glob
import importlib.util
import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro._lazy import attach
from repro.distributed import CollectorService
from repro.flows.matrix import RateMatrix
from repro.flows.records import TimeAxis
from repro.net.prefix import Prefix
from repro.traffic.packetize import write_pcap
from distributed.service_harness import ServiceHandle

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.cli",
    "repro.core",
    "repro.distributed",
    "repro.experiments",
    "repro.flows",
    "repro.net",
    "repro.pcap",
    "repro.pipeline",
    "repro.routing",
    "repro.sketches",
    "repro.stats",
    "repro.traffic",
)

#: Names that left ``src/``: the loopback harness and the Hill and
#: dict-fed skew cross-checks moved under ``tests/``, and the rest were
#: public API that no command, example or bench ran.
LEFT_SRC = (
    "ServiceHandle",
    "publish_summaries",
    "estimate_skew_from_totals",
    "hill_estimator",
    "ScenarioSlotSource",
    "log_spaced_histogram",
    "Lognormal",
    "simulate_flat_population",
    "OriginTierReport",
    "FlowRecord",
    "holding_time_ratio",
    "both_links",
    "total_elephant_slots",
    "aest_tail_onset",
)


def sources(name):
    """Every ``name`` file in the ``repro`` source tree."""
    pattern = os.path.join(SRC, "repro", "**", name)
    return glob.glob(pattern, recursive=True)


def exports_on_disk():
    """How many names the package ``__init__`` files export: each
    ``attach`` map's names, plus any ``__all__ += [...]`` of names the
    package binds eagerly."""
    count = 0
    for init in sources("__init__.py"):
        with open(init, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            called = getattr(getattr(node, "func", None), "id", None)
            augmented = getattr(getattr(node, "target", None), "id", None)
            if called == "attach":
                exports = ast.literal_eval(node.args[1])
                count += sum(len(names) for names in exports.values())
            elif augmented == "__all__":
                count += len(ast.literal_eval(node.value))
    return count


def run_python(script, *argv, cwd=None):
    """Run ``script`` in a fresh interpreter; its stdout, parsed as JSON."""
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env={**os.environ, "PYTHONPATH": SRC},
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


# Shared by the two order tests: ``check(package)`` holds every exported
# name of one package against the module its ``attach`` call declares.
CHECK_EXPORTS = """
import ast, importlib, inspect, json, pkgutil, sys, types

def declared(package):
    # {name: submodule} of the attach(__name__, {...}) in its source
    for node in ast.walk(ast.parse(inspect.getsource(package))):
        if getattr(getattr(node, "func", None), "id", None) == "attach":
            exports = ast.literal_eval(node.args[1])
            return {n: sub for sub, names in exports.items() for n in names}
    raise AssertionError(f"{package.__name__} does not call attach()")

def check(name):
    package = importlib.import_module(name)
    owner = declared(package)
    assert set(owner) <= set(package.__all__), name
    assert set(package.__all__) <= set(dir(package)), name
    for export in package.__all__:
        value = getattr(package, export)
        assert not isinstance(value, types.ModuleType), (name, export)
        if export in owner:
            home = f"{name}.{owner[export]}"
        else:  # bound eagerly by the package: a function knows its home
            home = getattr(value, "__module__", name)
        assert value is getattr(importlib.import_module(home), export), (
            name, export, home)
    return len(package.__all__)
"""


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_package_first(self, package):
        """Names resolved through a package nothing else has touched."""
        script = CHECK_EXPORTS + "print(json.dumps(check(sys.argv[1])))"
        assert run_python(script, package) > 0

    def test_after_every_submodule_is_loaded(self):
        """Loading a submodule binds it on its package — over a lazy
        name of the same spelling, if there is one. Also the test that
        every module under ``repro`` imports at all: nothing loads them
        eagerly any more, so a syntax or import error in one would
        otherwise wait for its first user."""
        script = CHECK_EXPORTS + """
import repro

def fail(name):
    raise ImportError(f"cannot import {name}")

found = pkgutil.walk_packages(repro.__path__, "repro.", fail)
walked = [module.name for module in found]
for name in walked:
    importlib.import_module(name)
packages = [n for n in walked if hasattr(sys.modules[n], "__path__")]
print(json.dumps({
    "walked": len(walked),
    "packages": sorted(["repro", *packages]),
    "checked": sum(check(n) for n in ["repro", *packages]),
}))
"""
        result = run_python(script)
        assert result["packages"] == sorted(PACKAGES)
        # exact counts read from disk: a module or package the walk
        # skips fails here, one that is deleted does not
        assert result["walked"] == len(sources("*.py")) - 1  # not repro
        assert result["checked"] == exports_on_disk()

    def test_a_function_named_like_its_module_stays_a_function(self):
        """``repro.stats.aest`` the function, not ``…stats.aest`` the
        module, whoever imported the module first."""
        script = """
import json
import repro.core.thresholds  # imports repro.stats.aest, the module
from repro.stats import aest, ecdf
from repro import aest as top
print(json.dumps([callable(aest), callable(ecdf), top is aest]))
"""
        assert run_python(script) == [True, True, True]

    def test_star_import_binds_exactly_all(self):
        script = """
import json
import repro.pipeline
bound = {}
exec("from repro.pipeline import *", bound)
del bound["__builtins__"]
print(json.dumps(sorted(bound) == sorted(repro.pipeline.__all__)))
"""
        assert run_python(script) is True

    def test_unknown_name_names_the_package(self):
        with pytest.raises(AttributeError, match="'repro.pipeline'"):
            repro.pipeline.NoSuchThing
        with pytest.raises(ImportError, match="repro.pipeline"):
            from repro.pipeline import NoSuchThing  # noqa: F401

    def test_submodules_are_attributes_without_an_import(self):
        script = """
import json
import repro
print(json.dumps(repro.distributed.merge.__name__))
"""
        assert run_python(script) == "repro.distributed.merge"


#: Settings nothing outside the tests set, deleted with the value every
#: real caller got put in their place: (module, owner, setting).
REMOVED_SETTINGS = [
    ("repro.distributed.runner", "parallel_ingest", "start"),
    ("repro.distributed.runner", "parallel_ingest", "ring_slot_packets"),
    ("repro.distributed.runner", "parallel_ingest", "max_worker_restarts"),
    ("repro.distributed.runner", "RowResolver", "prefixes"),
    ("repro.distributed.runner", "ParallelIngestResult.collector", "k"),
    (
        "repro.distributed.runner",
        "ParallelIngestResult.collector",
        "fill_gaps",
    ),
    ("repro.distributed.runner", "_worker_main", "faults"),
    ("repro.distributed.runner", "_worker_main", "incarnation"),
    ("repro.distributed.runner", "_worker_main", "resume_time"),
    ("repro.distributed.shm_ring", "RingWriter", "wait_poll_seconds"),
    ("repro.distributed.faults", "FaultPlan", "seed"),
    ("repro.distributed.faults", "FaultPlan.parse", "seed"),
    ("repro.distributed.faults", "ClientFaultState", "seed"),
    ("repro.distributed.client", "MonitorClient", "jitter_seed"),
    ("repro.pipeline.sampling", "SamplingSpec", "guard_packets"),
    ("repro.pipeline.sampling", "SamplingSpec", "guard_packet_bytes"),
    ("repro.distributed.summary", "SlotSummary.from_frame", "top_k"),
    ("repro.pipeline.spec", "SourceSpec.from_path", "chunk_packets"),
    (
        "repro.flows.aggregate",
        "FlowAggregator.to_rate_matrix",
        "include_all_routes",
    ),
    ("repro.core.streaming", "OnlineClassifier.observe_slot", "exclude_rows"),
    ("repro.pipeline.engine", "StreamingPipeline", "backend"),
]

#: Names that went with them: (module, owner, attribute).
REMOVED_ATTRIBUTES = [
    ("repro.core.engine", "ClassificationEngine", "run_all"),
    ("repro.pipeline.sampling", "SamplingSpec", "evidence_bytes"),
    ("repro.distributed.runner", "", "DEFAULT_MAX_WORKER_RESTARTS"),
    ("repro.pipeline.sampling", "", "DEFAULT_GUARD_PACKETS"),
    ("repro.pipeline.sampling", "", "DEFAULT_GUARD_PACKET_BYTES"),
]


def _resolve(module: str, owner: str):
    target = importlib.import_module(module)
    for part in filter(None, owner.split(".")):
        target = getattr(target, part)
    return target


class TestSurface:
    """What the sketch and pipeline packages offer: the production
    tables and the scorer; the scalar reference summaries and their
    backend are test oracles (``tests/oracles.py``)."""

    def test_sketches_export_the_tables_the_gate_and_the_scorer(self):
        assert repro.sketches.__all__ == sorted(
            [
                # the array table and what a batch update returns
                "ArraySpaceSaving",
                "BatchUpdate",
                # the Bloom admission gate
                "BloomGate",
                "CountingBloom",
                "gated_table",
                # the backend scorer three benches import
                "COMPARISON_COLUMNS",
                "BackendComparison",
                "BackendRun",
                "evaluate_backends",
                "run_backend",
                "score_against",
            ]
        )

    @pytest.mark.parametrize(
        "module", ["space_saving", "misra_gries", "sample_hold", "count_min"]
    )
    def test_no_scalar_summary_module(self, module):
        assert importlib.util.find_spec(f"repro.sketches.{module}") is None

    def test_pipeline_exports_no_scalar_backend(self):
        assert "SketchAggregation" not in repro.pipeline.__all__
        with pytest.raises(AttributeError):
            repro.pipeline.SketchAggregation

    def test_no_package_offers_a_name_that_left_src(self):
        for package in PACKAGES:
            module = importlib.import_module(package)
            assert not set(LEFT_SRC) & set(module.__all__), package
            for name in LEFT_SRC:
                assert not hasattr(module, name), (package, name)
        assert importlib.util.find_spec("repro.stats.tail") is None

    @pytest.mark.parametrize(
        "module, owner, setting",
        REMOVED_SETTINGS,
        ids=[f"{owner}({setting})" for _, owner, setting in REMOVED_SETTINGS],
    )
    def test_a_removed_setting_is_not_accepted(self, module, owner, setting):
        target = _resolve(module, owner)
        assert setting not in inspect.signature(target).parameters
        if dataclasses.is_dataclass(target):
            fields = {field.name for field in dataclasses.fields(target)}
            assert setting not in fields

    @pytest.mark.parametrize(
        "module, owner, name",
        REMOVED_ATTRIBUTES,
        ids=[name for _, _, name in REMOVED_ATTRIBUTES],
    )
    def test_a_removed_name_is_gone(self, module, owner, name):
        assert not hasattr(_resolve(module, owner), name)

    def test_the_residual_row_is_one_row(self):
        from repro.core.streaming import OnlineClassifier

        signature = inspect.signature(OnlineClassifier.observe_slot)
        assert list(signature.parameters) == [
            "self",
            "rates",
            "residual_row",
            "suppress_rows",
        ]


class TestAttach:
    def test_all_is_the_declared_names(self):
        import repro.stats  # __dir__ reads the package's namespace

        _, __dir__, names = attach("repro.stats", {"tail": ("b", "a")})
        assert names == ["a", "b"]
        assert {"a", "b", "tail", "ecdf"} <= set(__dir__())

    @pytest.mark.parametrize(
        "exports",
        [
            {"aest": ("aest",)},
            {"tail": ("ecdf",), "ecdf": ("quantile",)},
            {"tail": ("same",), "ecdf": ("same",)},
        ],
    )
    def test_a_name_that_is_also_a_submodule_is_refused(self, exports):
        with pytest.raises(ValueError, match="repro.stats exports"):
            attach("repro.stats", exports)


@pytest.fixture(scope="module")
def tiny_pcap(tmp_path_factory):
    """A capture over four /16s, beside ``tiny.rib``, which routes them."""
    path = tmp_path_factory.mktemp("imports") / "tiny.pcap"
    prefixes = [Prefix.parse(f"10.{i}.0.0/16") for i in range(4)]
    rates = np.random.default_rng(5).uniform(2e4, 8e4, (4, 3))
    write_pcap(RateMatrix(prefixes, TimeAxis(0.0, 60.0, 3), rates), str(path))
    (path.parent / "tiny.rib").write_text(
        "".join(f"{prefix}\n" for prefix in ["10.0.0.0/8", *prefixes])
    )
    return path


# Runs ``main(argv)`` with the command's own output thrown away and
# prints what got imported on the way.
LOADED_BY_MAIN = """
import contextlib, io, json, sys
from repro.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
assert code == 0, code
print(json.dumps(sorted(sys.modules)))
"""

# Run before ``LOADED_BY_MAIN``: a stand-in for the fault module, so
# that what loads next is what the rest of the import chain loads.
STUB_FAULTS = """
import sys, types
stub = types.ModuleType("repro.distributed.faults")
stub.FaultPlan = stub.FaultySocket = None
sys.modules[stub.__name__] = stub
"""

STREAM = "stream tiny.pcap --prefix-length 24 --json"
#: The paper's run: flows are the RIB's prefixes, counted exactly.
EXACT = "stream tiny.pcap --rib tiny.rib --json"
OTHER_PROCESSES = ("asyncio", "ssl", "multiprocessing")


def loaded(command_line, cwd=None, preamble=""):
    script = preamble + LOADED_BY_MAIN
    return set(run_python(script, *command_line.split(), cwd=cwd))


def under(modules, *roots):
    """The members of ``modules`` at or below any of ``roots``."""
    return {
        name
        for name in modules
        if any(name == root or name.startswith(root + ".") for root in roots)
    }


class TestImportBoundaries:
    def test_import_repro_loads_no_numpy(self):
        script = "import json, sys, repro; print(json.dumps([*sys.modules]))"
        modules = set(run_python(script))
        assert not under(modules, "numpy")
        assert under(modules, "repro") == {"repro", "repro._lazy"}

    def test_help_loads_no_command(self):
        modules = loaded("--help")
        assert under(modules, "repro.cli") == {"repro.cli"}
        assert not under(modules, "numpy", *OTHER_PROCESSES)

    def test_stream_loads_what_it_runs(self, tiny_pcap):
        modules = loaded(STREAM, cwd=tiny_pcap.parent)
        assert under(modules, "repro.cli") == {
            "repro.cli",
            "repro.cli.common",
            "repro.cli.stream",
        }
        assert not under(
            modules,
            *OTHER_PROCESSES,
            "repro.traffic",
            "repro.experiments",
            "repro.distributed.service",
            "repro.distributed.client",
            "repro.distributed.runner",
            "repro.distributed.shm_ring",
            "repro.distributed.checkpoint",
            "repro.distributed.faults",
            # packets are columns: no per-packet codec
            "repro.pcap.packet",
            "repro.pcap.ethernet",
            "repro.pcap.ip",
            "repro.pcap.transport",
            # route objects: a stream resolves through compiled columns
            "repro.routing.rib",
            "repro.routing.aspath",
        )

    def test_exact_stream_loads_no_sketch_summary_or_exporter(
        self, tiny_pcap
    ):
        """What an exact ``--rib --json`` run never executes stays
        unloaded: the sketch tables, the sharder, the aest estimator,
        the summary codec, the merge and collector, the flow-record
        exporter, and the text table a ``--json`` run does not print."""
        modules = loaded(EXACT, cwd=tiny_pcap.parent)
        assert "repro.routing.ribfile" in modules
        assert "repro.distributed.envelope" in modules
        assert not under(
            modules,
            "repro.sketches",
            "repro.pipeline.sharded",
            "repro.stats.aest",
            "repro.distributed.summary",
            "repro.distributed.merge",
            "repro.distributed.collector",
            "repro.distributed.framing",
            "repro.flows.interchange",
            "repro.analysis.report",
        )

    @pytest.mark.parametrize(
        "flags, module",
        [
            (
                "--backend space-saving --capacity 4",
                "repro.sketches.array_tables",
            ),
            ("--summary-out tiny.npz", "repro.distributed.summary"),
            ("--flow-csv-out tiny.csv", "repro.flows.interchange"),
            ("--scheme aest", "repro.stats.aest"),
            ("--shards 2", "repro.pipeline.sharded"),
        ],
    )
    def test_the_branch_that_runs_a_module_loads_it(
        self, tiny_pcap, flags, module
    ):
        assert module in loaded(f"{EXACT} {flags}", cwd=tiny_pcap.parent)

    def test_stream_workers_loads_the_fleet(self, tiny_pcap):
        modules = loaded(f"{STREAM} --workers 2", cwd=tiny_pcap.parent)
        assert "repro.distributed.runner" in modules
        assert "repro.distributed.shm_ring" in modules
        assert not under(modules, "asyncio", "repro.distributed.service")

    def test_stream_connect_loads_the_client_not_the_daemon(self, tiny_pcap):
        with ServiceHandle(CollectorService()) as handle:
            host, port = handle.address
            modules = loaded(
                f"{STREAM} --connect {host}:{port}", cwd=tiny_pcap.parent
            )
        assert "repro.distributed.client" in modules
        assert not under(modules, "asyncio", "repro.distributed.service")

    def test_query_loads_no_numpy_and_no_asyncio(self, tiny_pcap):
        with ServiceHandle(CollectorService()) as handle:
            host, port = handle.address
            loaded(f"{STREAM} --connect {host}:{port}", cwd=tiny_pcap.parent)
            modules = loaded(f"query {host}:{port}")
            stubbed = loaded(f"query {host}:{port}", preamble=STUB_FAULTS)
        assert under(modules, "repro.cli") == {"repro.cli", "repro.cli.query"}
        assert not under(modules, "numpy", *OTHER_PROCESSES)
        assert not under(
            modules, "repro.pipeline", "repro.core", "repro.sketches"
        )
        assert not under(
            modules, "repro.distributed.faults", "dataclasses", "inspect"
        )
        # nothing else on the way pulls them in either
        assert not under(stubbed, "dataclasses", "inspect")
