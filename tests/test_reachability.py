"""``src/`` ships what a command runs: the static import graph.

The walk starts at ``repro.__main__`` and every ``repro.cli`` module
(the CLI imports a command's module by name, so each one is a root)
and follows every import statement that can run: ``import a.b`` and
``from a.b import c`` load each package on the way, and an import under
``if TYPE_CHECKING:`` never runs, so it is no edge. A package's
lazy-export table (:func:`repro._lazy.attach`) is an edge only for a
name that a reached module imports from it — a walk that followed
every key of every table would reach every module and prove nothing.

A module the walk does not reach is one no command runs. It either
goes, or it stands on :data:`ALLOWED` with the reason it stays; what
an allowed module imports stays with it.
"""

import ast
import os

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Modules no command reaches, each with who does (at most six).
ALLOWED = {
    # the legacy sketch-comparison benches import it; it goes when they do
    "repro.sketches.streaming_eval",
    # tests, the goldens' inputs and legacy benches write their captures
    # with it; it becomes a test fixture once those benches go
    "repro.traffic.packetize",
    # examples/distributed_merge.py and bench_sharded_merge.py stripe
    # one capture across monitors with it
    "repro.distributed.partition",
    # the paper's text claims: test_paper_claims.py and
    # bench_ablation_alpha.py (churn), the bench_text_* benches
    # (prefixes through textstats)
    "repro.analysis.churn",
    "repro.analysis.prefixes",
    "repro.experiments.textstats",
}


def modules_on_disk():
    """Dotted module name -> path, for every module under ``repro``."""
    found = {}
    for root, _, files in os.walk(os.path.join(SRC, "repro")):
        for file in files:
            if not file.endswith(".py"):
                continue
            path = os.path.join(root, file)
            parts = os.path.relpath(path, SRC)[: -len(".py")].split(os.sep)
            if parts[-1] == "__init__":
                parts.pop()
            found[".".join(parts)] = path
    return found


def parse(path):
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), path)


def lazy_table(tree):
    """``{name: submodule}`` of the ``attach(__name__, {...})`` call in
    a package ``__init__``, submodule keys mapped to themselves."""
    for node in ast.walk(tree):
        if getattr(getattr(node, "func", None), "id", None) == "attach":
            exports = ast.literal_eval(node.args[1])
            table = {name: name for name in exports}
            for submodule, names in exports.items():
                table.update(dict.fromkeys(names, submodule))
            return table
    return {}


def runtime_imports(tree):
    """Every import node that can run: none under ``if TYPE_CHECKING:``."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
            continue
        if (
            isinstance(node, ast.If)
            and ast.unparse(node.test) == "TYPE_CHECKING"
        ):
            pending.extend(node.orelse)
            continue
        pending.extend(ast.iter_child_nodes(node))


class ImportGraph:
    def __init__(self):
        self.modules = modules_on_disk()
        self.trees = {name: parse(p) for name, p in self.modules.items()}
        self.tables = {
            name: lazy_table(tree)
            for name, tree in self.trees.items()
            if self.modules[name].endswith("__init__.py")
        }

    def loaded_by(self, dotted):
        """``dotted`` and every package above it, as ``import`` loads."""
        parts = dotted.split(".")
        return [
            ".".join(parts[:end])
            for end in range(1, len(parts) + 1)
            if ".".join(parts[:end]) in self.modules
        ]

    def resolve(self, package, name):
        """The modules a ``from package import name`` loads beyond the
        package: a submodule, or the one its lazy table names."""
        if f"{package}.{name}" in self.modules:
            return [f"{package}.{name}"]
        owner = self.tables.get(package, {}).get(name)
        if owner is None:  # defined in the package itself
            return []
        target = f"{package}.{owner}"
        return [target, *self.resolve(target, name)]

    def edges(self, name):
        for node in runtime_imports(self.trees[name]):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield from self.loaded_by(alias.name)
                continue
            if node.level or not node.module.startswith("repro"):
                continue
            yield from self.loaded_by(node.module)
            for alias in node.names:
                yield from self.resolve(node.module, alias.name)

    def reached(self, roots):
        seen, pending = set(), list(roots)
        while pending:
            name = pending.pop()
            if name in seen or name not in self.modules:
                continue
            seen.add(name)
            pending.extend(self.edges(name))
        return seen


def roots(modules):
    return [
        name
        for name in modules
        if name == "repro.__main__" or name.startswith("repro.cli")
    ]


def test_every_module_is_reached_by_a_command_or_an_allowed_module():
    """What an allowed module imports stays while it does: the packet
    codecs are written with by ``traffic.packetize`` alone."""
    graph = ImportGraph()
    kept = graph.reached([*roots(graph.modules), *ALLOWED])
    stray = sorted(set(graph.modules) - kept)
    assert not stray, f"no command imports {stray}: delete or allow them"


def test_the_allow_list_is_short_and_names_only_unreached_modules():
    graph = ImportGraph()
    reached = graph.reached(roots(graph.modules))
    assert len(ALLOWED) <= 6
    assert ALLOWED <= set(graph.modules), "an allowed module is gone"
    assert not ALLOWED & reached, "a command reaches an allowed module"


def test_a_lazy_table_is_an_edge_only_for_an_imported_name():
    """``from repro.distributed import Collector`` loads the collector
    module, not the partition module beside it in the same table."""
    graph = ImportGraph()
    assert graph.resolve("repro.distributed", "Collector") == [
        "repro.distributed.collector"
    ]
    assert graph.resolve("repro", "ClassificationEngine") == [
        "repro.core",
        "repro.core.engine",
    ]
    assert graph.resolve("repro.sketches", "bloom") == [
        "repro.sketches.bloom"
    ]
    assert graph.resolve("repro.cli", "main") == []
