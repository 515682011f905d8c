"""Lazy package namespaces: a name costs only the module that defines it.

Every ``repro`` package declares its exports once, as
``{submodule: (name, ...)}``, and takes its PEP 562 hooks from
:func:`attach` (the scientific-python SPEC 1 shape; ``lazy_loader``
itself is not a dependency)::

    __getattr__, __dir__, __all__ = attach(__name__, {"engine": ("Scheme",)})

``from repro.core import Scheme`` then imports ``repro.core.engine`` and
nothing else, where an ``__init__`` full of imports made every command
pay for every module of every package at start-up.
"""

from __future__ import annotations

import importlib
import sys


def attach(package: str, exports: dict[str, tuple[str, ...]]):
    """``package``'s ``__getattr__``, ``__dir__`` and ``__all__``.

    An exported name resolves to its defining submodule's own object,
    a key of ``exports`` to the submodule itself; either is then bound
    on the package, so the hook runs once per name. ``__all__`` is the
    exported names.

    No exported name may be a submodule's name too: loading a submodule
    binds it on its package, so the name would mean the function or the
    module depending on what was imported first. Such a name has to be
    imported eagerly by the package (see ``repro.stats``), after which
    the from-import's binding is the one that stays.
    """
    owner: dict[str, str] = {}
    for submodule, names in exports.items():
        for name in names:
            if name in exports or name in owner:
                raise ValueError(
                    f"{package} exports {name!r} twice, or beside a "
                    "submodule of that name; bind it eagerly instead"
                )
            owner[name] = submodule

    def __getattr__(name: str):
        if name in owner:
            module = importlib.import_module(f"{package}.{owner[name]}")
            value = getattr(module, name)
        elif name in exports:
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *owner, *exports})

    return __getattr__, __dir__, sorted(owner)
