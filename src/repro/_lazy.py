"""Lazy package re-exports (PEP 562), shared by every ``repro`` ``__init__``.

A package lists the names it re-exports per defining submodule; each name
is imported on first attribute access and then cached in the package
namespace, so ``import repro.gpusim.device`` loads one module instead of
the whole simulator.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Mapping
from importlib import import_module
from typing import Any


def lazy_exports(
    package: str, exports: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps a submodule (relative to ``package``) to the public
    names it defines.  A public name must not also be a submodule name:
    importing that submodule would bind the module over the name.
    """
    owner = {name: submodule for submodule, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        try:
            submodule = owner[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(f".{submodule}", package), name)
        namespace[name] = value  # later lookups skip this hook
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(owner))

    return __getattr__, __dir__, list(owner)
