"""Package re-exports resolved on first access (PEP 562).

A package ``__init__`` that re-exports its submodules' names would load
every submodule the moment any one of them is imported.  Instead it
declares which submodule holds each name::

    __all__, __getattr__, __dir__ = exports(__name__, globals(), {
        "deployment": ("Deployment", "DeploymentRecord"),
        ...
    })

and ``from repro.runtime import Deployment`` loads
``repro.runtime.deployment`` alone, then keeps the name in the package
so the next access is a plain attribute read (DESIGN §13c).
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable


def exports(package: str, namespace: dict[str, Any],
            table: dict[str, tuple[str, ...]]
            ) -> tuple[list[str], Callable[[str], Any],
                       Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``, whose
    ``table`` maps each submodule to the names it re-exports."""
    home = {name: module for module, names in table.items()
            for name in names}

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | home.keys())

    return sorted(home), __getattr__, __dir__
