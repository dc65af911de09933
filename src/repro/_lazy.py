"""PEP 562 re-exports that import their defining submodule on first use.

A package ``__init__`` lists, per submodule, the names it re-exports::

    __getattr__, __dir__ = _lazy.exports(__name__, {
        ".engine": ("compile_chain", "clear_memo"),
    })

``from package import compile_chain`` then imports ``package.engine``
at that moment, and importing the package itself costs nothing more.
A resolved name is stored on the package, so later lookups are plain
attribute reads, and it is read from the defining module, so a caller
that rebinds the definition before first use is seen.  A name equal to
one of the package's submodules must stay an eager import: importing
the submodule would set the package attribute to the module object.
"""

from __future__ import annotations

import importlib
import sys


def exports(package: str, table: dict[str, tuple[str, ...]]):
    """The ``(__getattr__, __dir__)`` pair serving ``table``'s names."""
    where = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__
