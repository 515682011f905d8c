"""Import hygiene without a linter binary: pyflakes' F401, by AST.

CI runs ``ruff check .`` with the default rule set, whose F401 fails on
an imported name the module never reads. This test holds the same rule
over every Python file of the repository in tier-1, so an unused import
fails here too. A name counts as read when the module loads it
anywhere (annotations and subscripts included, quoted names parsed),
lists it in a literal ``__all__`` (``=`` or ``+=``), or — in a package
``__init__`` — names it in the lazy export table its
:func:`repro._lazy.attach` call declares. An import line marked
``# noqa`` or ``# noqa: F401`` is exempt, as ruff exempts it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _string_names(node: ast.AST) -> set[str]:
    """Names read inside the quoted annotations under ``node``."""
    names: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Constant) and isinstance(child.value, str):
            try:
                parsed = ast.parse(child.value, mode="eval")
            except SyntaxError:
                continue
            names |= {
                leaf.id
                for leaf in ast.walk(parsed)
                if isinstance(leaf, ast.Name)
            }
    return names


def _literal_strings(node: ast.AST) -> set[str]:
    return {
        child.value
        for child in ast.walk(node)
        if isinstance(child, ast.Constant) and isinstance(child.value, str)
    }


def _read_names(tree: ast.Module, is_init: bool) -> set[str]:
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            annotations.append(node.returns)
            annotations += [
                arg.annotation
                for arg in (
                    *arguments.posonlyargs,
                    *arguments.args,
                    *arguments.kwonlyargs,
                    arguments.vararg,
                    arguments.kwarg,
                )
                if arg is not None
            ]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Subscript):
            # a type expression outside an annotation (``Callable[[],
            # "Source"]``): ruff reads its quoted names as references too
            annotations.append(node.slice)
        for annotation in annotations:
            if annotation is not None:
                read |= _string_names(annotation)
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        if any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in targets
        ) and isinstance(node.value, (ast.List, ast.Tuple)):
            read |= _literal_strings(node.value)
        if is_init and isinstance(node, ast.Call):
            function = node.func
            if getattr(function, "id", getattr(function, "attr", "")) == (
                "attach"
            ):
                for argument in node.args[1:]:
                    read |= _literal_strings(argument)
    return read


def unused_imports(
    source: str, is_init: bool = False
) -> list[tuple[int, str]]:
    """``(line, name)`` of every import ``source`` binds and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = _read_names(tree, is_init)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            line = getattr(alias, "lineno", node.lineno)
            marks = {lines[line - 1], lines[node.lineno - 1]}
            if any(
                "# noqa" in text
                and ("# noqa:" not in text or "F401" in text)
                for text in marks
            ):
                continue
            if bound not in read:
                unused.append((line, bound))
    return sorted(unused)


def _python_files() -> list[Path]:
    return sorted(
        path
        for path in REPO.rglob("*.py")
        if not any(
            part.startswith(".") or part in ("build", "__pycache__")
            for part in path.relative_to(REPO).parts
        )
    )


def test_no_file_imports_a_name_it_never_reads():
    found = [
        f"{path.relative_to(REPO)}:{line}: {name}"
        for path in _python_files()
        for line, name in unused_imports(
            path.read_text(encoding="utf-8"), path.name == "__init__.py"
        )
    ]
    assert found == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import os\n", [(1, "os")]),
        ("import os.path\nos.getcwd()\n", []),
        ("from a import b as c\nb = 1\nprint(b)\n", [(1, "c")]),
        ("def f():\n    import json\n    return 1\n", [(2, "json")]),
        ("from __future__ import annotations\n", []),
        ("from a import (\n    b,\n    c,\n)\nprint(c)\n", [(2, "b")]),
    ],
    ids=["plain", "dotted", "alias", "local", "future", "multi-line"],
)
def test_an_unused_import_is_found(source, expected):
    assert unused_imports(source) == expected


@pytest.mark.parametrize(
    "source, is_init",
    [
        ("import os  # noqa: F401\n", False),
        ("import os  # noqa\n", False),
        ("from a import (\n    b,  # noqa: F401\n)\n", False),
        ("from a import b\n__all__ = ['b']\n", False),
        ("from a import b\n__all__ = []\n__all__ += ['b']\n", False),
        (
            "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n"
            "    from a import B\ndef f() -> 'list[B]': ...\n",
            False,
        ),
        (
            "from typing import Callable\nfrom a import B\n"
            "Factory = Callable[[], 'B']\n",
            False,
        ),
        (
            "from p.m import m\nfrom repro._lazy import attach\n"
            "__getattr__, __dir__, __all__ = "
            "attach(__name__, {'m': ('x',)})\n",
            True,
        ),
    ],
    ids=[
        "noqa-f401",
        "noqa",
        "noqa-alias-line",
        "all",
        "all-extended",
        "quoted-annotation",
        "quoted-subscript",
        "lazy-table",
    ],
)
def test_a_read_or_exempt_import_is_not_reported(source, is_init):
    assert unused_imports(source, is_init) == []


def test_another_rule_s_noqa_does_not_exempt():
    assert unused_imports("import os  # noqa: E501\n") == [(1, "os")]
