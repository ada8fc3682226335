"""Pluggable BDD backends: node storage + kernels behind one interface.

The manager (:class:`repro.bdd.manager.BDDManager`) is written once against
:class:`~repro.bdd.backends.base.BDDBackend`; which physical engine runs
underneath is an :class:`~repro.engine.EngineConfig` knob (``backend``).
See :mod:`repro.bdd.backends.base` for the contract.
"""

from __future__ import annotations

import sys
from typing import Dict, Tuple

from ..._lazy import lazy_exports
from ...errors import BDDError
from .base import FALSE, TERMINAL_LEVEL, TRUE, BDDBackend
from .dict_backend import DictBackend

#: Canonical registry names.
BACKEND_DICT = "dict"
BACKEND_ARRAY = "array"

#: name -> class exported by this package.  ``ArrayBackend`` is a lazy
#: export, so runs on the default backend never import the array kernels.
_REGISTRY: Dict[str, str] = {
    BACKEND_DICT: "DictBackend",
    BACKEND_ARRAY: "ArrayBackend",
}

__getattr__, __dir__ = lazy_exports(__name__, {"ArrayBackend": "array_backend"})

#: All selectable backend names, sorted (the argparse choices list).
BACKEND_NAMES: Tuple[str, ...] = tuple(sorted(_REGISTRY))


def create_backend(name: str) -> BDDBackend:
    """Instantiate the backend registered under ``name``.

    >>> create_backend("dict").name
    'dict'
    >>> create_backend("array").name
    'array'
    """
    try:
        cls_name = _REGISTRY[name]
    except KeyError:
        raise BDDError(
            f"unknown BDD backend {name!r}; "
            f"available: {', '.join(BACKEND_NAMES)}"
        ) from None
    return getattr(sys.modules[__name__], cls_name)()


__all__ = [
    "BDDBackend",
    "DictBackend",
    "ArrayBackend",
    "BACKEND_DICT",
    "BACKEND_ARRAY",
    "BACKEND_NAMES",
    "create_backend",
    "FALSE",
    "TRUE",
    "TERMINAL_LEVEL",
]
