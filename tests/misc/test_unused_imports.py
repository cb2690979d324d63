"""Unused imports (ruff's F401), checked without the linter.

CI runs ``ruff check src tests``; the development containers have no
ruff, so the class of error that step stops on is caught here: a name
imported at module level under ``src/repro`` or ``tests`` must be loaded
somewhere in the module.  Not counted: ``__init__.py`` (imports there
are the package's re-exports), ``__future__``, an import marked
``# noqa`` (imported for its registration side effect), and a name that
only string annotations mention (``TYPE_CHECKING`` imports).
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
FILES = sorted(path for top in ("src/repro", "tests")
               for path in (REPO / top).rglob("*.py")
               if path.name != "__init__.py")


def _imported(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Module-level bound name -> line, ``if``/``try`` bodies included."""
    bound: dict[str, int] = {}

    def scan(body: list[ast.stmt]) -> None:
        for node in body:
            if isinstance(node, (ast.If, ast.Try)):
                for field in ("body", "orelse", "finalbody"):
                    scan(getattr(node, field, []))
                for handler in getattr(node, "handlers", []):
                    scan(handler.body)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                if any("noqa" in line for line in
                       lines[node.lineno - 1:node.end_lineno]):
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name != "*":
                        bound[name] = node.lineno

    scan(tree.body)
    return bound


def _annotation_strings(tree: ast.Module):
    """The text of every quoted annotation (``parent: "Env | None"``)."""
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None),
                           getattr(node, "returns", None)):
            if annotation is None:
                continue
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value,
                                                                str):
                    yield sub.value


def _used(tree: ast.Module) -> set[str]:
    """Every name the module loads: plain ``Name`` nodes, names inside
    quoted annotations, and what ``__all__`` re-exports."""
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)}
    for text in _annotation_strings(tree):
        used |= {node.id for node in ast.walk(ast.parse(text, mode="eval"))
                 if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in ast.walk(node.value)
                     if isinstance(elt, ast.Constant)}
    return used


def test_module_level_imports_are_used():
    offenders = []
    for path in FILES:
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        used = _used(tree)
        offenders += [
            f"{path.relative_to(REPO).as_posix()}:{line}: {name}"
            for name, line in _imported(tree, text.splitlines()).items()
            if name not in used]
    assert not offenders, "unused imports:\n  " + "\n  ".join(offenders)
