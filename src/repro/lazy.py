"""Package surfaces that load their modules on first use (PEP 562).

A package ``__init__`` that re-exports its modules' names eagerly makes
every process that imports one of them pay for all of them.  Instead,
each package declares a name → module map and lets :func:`lazy_exports`
build its ``__getattr__`` and ``__all__``::

    __getattr__, __all__ = lazy_exports(__name__, {
        "Ledger": "repro.ledger.store",
        ...
    })

The first access to a name (attribute, ``from pkg import name`` or
``import *``) imports its module and caches the value on the package, so
later accesses are plain attribute lookups.  A name mapped to the
package's own submodule of that name (``"cext": "repro.clamr.backends.cext"``)
exports the submodule itself.  So no other export may share its name
with a submodule: importing the submodule would bind it over the
export.
"""

from __future__ import annotations

import importlib
import sys

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: dict[str, str]):
    """``(__getattr__, __all__)`` for ``package`` from a name → module map."""

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = importlib.import_module(module)
        if module != f"{package}.{name}":
            value = getattr(value, name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__, list(exports)
