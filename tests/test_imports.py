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

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro._lazy import attach
from repro.distributed import CollectorService, ServiceHandle
from repro.flows.matrix import RateMatrix
from repro.flows.records import TimeAxis
from repro.net.prefix import Prefix
from repro.traffic.packetize import write_pcap

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
        assert result["walked"] > 100 and result["checked"] > 300

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


class TestAttach:
    def test_all_is_the_declared_names(self):
        import repro.stats  # __dir__ reads the package's namespace

        _, __dir__, names = attach("repro.stats", {"tail": ("b", "a")})
        assert names == ["a", "b"]
        assert {"a", "b", "tail", "aest"} <= set(__dir__())

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
    path = tmp_path_factory.mktemp("imports") / "tiny.pcap"
    prefixes = [Prefix.parse(f"10.{i}.0.0/16") for i in range(4)]
    rates = np.random.default_rng(5).uniform(2e4, 8e4, (4, 3))
    write_pcap(RateMatrix(prefixes, TimeAxis(0.0, 60.0, 3), rates), str(path))
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

STREAM = "stream tiny.pcap --prefix-length 24 --json"
OTHER_PROCESSES = ("asyncio", "ssl", "multiprocessing")


def loaded(command_line, cwd=None):
    return set(run_python(LOADED_BY_MAIN, *command_line.split(), cwd=cwd))


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
            # route objects: a stream resolves through compiled columns
            "repro.routing.rib",
            "repro.routing.radix",
            "repro.routing.aspath",
        )

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
        assert under(modules, "repro.cli") == {"repro.cli", "repro.cli.query"}
        assert not under(modules, "numpy", *OTHER_PROCESSES)
        assert not under(
            modules, "repro.pipeline", "repro.core", "repro.sketches"
        )
