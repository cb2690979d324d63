"""Lexical environments for the PLAN-P interpreter."""

from __future__ import annotations


class Env:
    """A chained mapping from names to run-time values.

    Lookup failures are programming errors (the type checker guarantees
    scoping), so they raise ``KeyError`` rather than a PLAN-P exception.
    """

    __slots__ = ("_bindings", "_parent")

    def __init__(self, parent: "Env | None" = None):
        self._parent = parent
        self._bindings: dict[str, object] = {}

    def bind(self, name: str, value: object) -> None:
        self._bindings[name] = value

    def lookup(self, name: str) -> object:
        env: Env | None = self
        while env is not None:
            if name in env._bindings:
                return env._bindings[name]
            env = env._parent
        raise KeyError(f"unbound variable {name!r} (type checker bug?)")

    def child(self) -> "Env":
        return Env(parent=self)
