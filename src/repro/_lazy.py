"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports a heavy or rarely used submodule
makes every importer of the package pay for it: ``repro.suite`` used to
load the process-pool machinery (``concurrent.futures``,
``multiprocessing``, ``socket``) for callers that only wanted a job
record.  :func:`lazy_exports` defers such names to first use:

    >>> import sys, types
    >>> pkg = types.ModuleType("pkg_demo")
    >>> sys.modules["pkg_demo"] = pkg
    >>> sys.modules["pkg_demo.sub"] = types.SimpleNamespace(answer=42)
    >>> pkg.__getattr__, pkg.__dir__ = lazy_exports("pkg_demo", {"answer": "sub"})
    >>> pkg.answer, "answer" in vars(pkg)
    (42, True)
    >>> del sys.modules["pkg_demo"], sys.modules["pkg_demo.sub"]

``from package import name`` goes through the same hook, so importers
see no difference; a resolved name is cached in the package namespace,
so the hook runs once per name.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: Dict[str, str]) -> Tuple[Callable, Callable]:
    """``(__getattr__, __dir__)`` for ``package``, where ``exports`` maps
    each lazily exported name to the submodule (relative to ``package``)
    that defines it."""

    def __getattr__(name: str):
        submodule = exports.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{submodule}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
