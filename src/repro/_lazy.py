"""PEP 562 lazy exports for the package ``__init__`` modules.

An ``__init__`` that imports every submodule makes ``import
repro.store.service`` pay for scipy, the batched engines and the
paper's process modules that the read path never calls.  Each package
instead lists which submodule defines each public name: the submodule
is imported on the name's first lookup and the value is cached in the
package namespace, so later lookups are plain attribute hits.
``__all__``, ``dir()``, star-imports and ``from pkg import name``
behave as with eager imports.

A public name that equals its own submodule's name (``repro.graphs``'s
``grid`` function in ``graphs/grid.py``) must still be imported eagerly
by its package: once anything imports that submodule, the import system
binds the *module* on the package and ``__getattr__`` is never asked.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Iterable, Sequence
from typing import Any

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Iterable[tuple[str, Sequence[str]]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """Build a package's ``__all__``, ``__getattr__`` and ``__dir__``.

    Parameters
    ----------
    package : str
        The package's ``__name__``.
    exports : iterable of (str, sequence of str)
        ``(submodule, names)`` pairs in ``__all__`` order; *submodule*
        is relative to *package* (``".facade"``).  A submodule may
        appear in more than one pair.

    Returns
    -------
    tuple
        ``(__all__, __getattr__, __dir__)`` to bind in the package.
        ``__getattr__`` also imports a submodule looked up by name
        (``repro.sim.batch``), as an eager ``__init__`` made it an
        attribute.
    """
    origin = {name: module for module, names in exports for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            if name.startswith("__"):
                raise AttributeError(f"module {package!r} has no attribute {name!r}")
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    return list(origin), __getattr__, __dir__
