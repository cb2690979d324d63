"""The call census: every function has somebody who names it.

A function under ``src/repro`` that nothing in the product names is code
that every later change must read, keep working and test, for no
caller.  The rule mirrors the options census
(``test_options_census.py``): each function must show one of

* its name, referenced from ``src/``, ``bench/`` or ``examples/``
  outside its own ``def`` — as a ``Name`` or an ``Attribute``, as a
  string that ``bench/`` patches by name or a ``getattr``-family call
  looks up, or as the method a primitive's ``inline=`` template calls
  (``"{0}.swapped()"``).  An ``import`` line, ``__all__`` and a
  :mod:`repro._lazy` ``exports(...)`` table are export tables, not
  callers (a test is not a caller either: a function only tests call
  is a test helper);
* a dunder name: Python calls it;
* a dispatch rule spelled out below — a ``@register("x")`` experiment
  that some ``Scenario`` runs, or a ``_expr_<Node>`` method that the
  type checker's rule table reads off its own class;
* an entry in ``ALLOWED`` below, with its reason.

Names are matched, not resolved: a reference to ``clear`` keeps every
``clear`` alive.  The census errs towards "somebody calls it"; it is a
floor under the code size, not a proof of reachability.  Every
registry entry must also be run by some ``Scenario``, so an experiment
no matrix runs shows up here rather than hiding behind its decorator.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
CALLER_DIRS = ("src", "bench", "examples")

#: unreferenced functions the allow-list keeps; lower it when one goes,
#: never raise it without a reason entry to show
MAX_UNREFERENCED = 14

#: ``path-in-src/repro: prefix`` — methods a class dispatches to by
#: name, through a table built from the prefix in the same file
DISPATCH_PREFIXES = {"lang/typechecker.py": "_expr_"}

#: why nobody in the product has to name it -> ``module:qualname``
#: entries (``module`` relative to ``repro``)
ALLOWED: dict[str, list[str]] = {
    "fault and recovery operations no shipped drill takes yet: they get "
    "their scenarios with the stateful link/fault model (ROADMAP item "
    "2)": [
        "net.faults:FaultController.restart",
        "net.faults:FaultController.heal",
        "net.faults:FaultController.unpoison_asp",
        "net.faults:FaultController.script",
        "runtime.netdeploy:DeploymentManager.repush",
        "runtime.netdeploy:DeploymentManager.await_converged",
        "runtime.netdeploy:DeploymentManager.counters",
    ],
    "the operator's undo: a safety action that no drill needs because "
    "the breaker rolls back on its own": [
        "runtime.lifecycle:LifecycleManager.rollback",
    ],
    "the opt-in packet tracer's read side, which causal tracing builds "
    "on (ROADMAP item 9)": [
        "net.trace:PacketTracer.attach_all",
        "net.trace:PacketTracer.packet_path",
        "net.trace:PacketTracer.render",
    ],
    "how a caller outside the simulator mints the key that "
    "Simulator.post takes; post stays because bench/trace.py patches it "
    "by name, and both go with the benchmark change (ROADMAP item 1)": [
        "net.sim:SchedulingContext.next_lseq",
    ],
    "the expression-level entry of the parser, which the frozen "
    "reference parser is checked against error for error": [
        "lang.parser:parse_expr",
    ],
    "the process-wide GLOBAL scope outlives any one run; the autouse "
    "test fixture resets it between tests": [
        "obs:reset_global",
    ],
}
_ALLOWED_ENTRIES = {entry for entries in ALLOWED.values()
                    for entry in entries}


@dataclass(frozen=True)
class Function:
    path: str          # relative to src/repro
    line: int
    end: int
    qualname: str

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def key(self) -> str:
        module = self.path.removesuffix(".py").replace("/", ".")
        return f"{module.removesuffix('.__init__')}:{self.qualname}"

    def __str__(self) -> str:
        return f"src/repro/{self.path}:{self.line}: {self.qualname}"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def functions(root: Path = REPO) -> list[Function]:
    """Every ``def`` under ``src/repro``, nested ones included."""
    found: list[Function] = []

    def walk(node: ast.AST, rel: str, qual: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = qual + [child.name]
                found.append(Function(rel, child.lineno, child.end_lineno,
                                      ".".join(inner)))
                walk(child, rel, inner)
            elif isinstance(child, ast.ClassDef):
                walk(child, rel, qual + [child.name])
            else:
                walk(child, rel, qual)

    base = root / "src" / "repro"
    for path in sorted(base.rglob("*.py")):
        walk(_parse(path), path.relative_to(base).as_posix(), [])
    return found


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_LOOKUPS = {"getattr", "setattr", "hasattr", "delattr"}
_INLINE_CALL = re.compile(r"\.([A-Za-z_][A-Za-z0-9_]*)\(")


def _is_export_table(node: ast.AST) -> bool:
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        return any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets)
    return False


def _is_exports_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "exports")


class References:
    """Every name the product spells, with where it spells it."""

    def __init__(self, root: Path = REPO) -> None:
        #: name -> {(repo-relative file, line)}
        self.sites: dict[str, set[tuple[str, int]]] = defaultdict(set)
        for top in CALLER_DIRS:
            for path in sorted((root / top).rglob("*.py")):
                rel = path.relative_to(root).as_posix()
                self._walk(_parse(path), rel, by_string=top == "bench")

    def _walk(self, node: ast.AST, rel: str, by_string: bool) -> None:
        if _is_export_table(node):
            return
        if _is_exports_call(node):
            # ``exports`` itself is called; the table it is handed is not
            self.sites["exports"].add((rel, node.lineno))
            return
        if isinstance(node, ast.Name):
            self.sites[node.id].add((rel, node.lineno))
        elif isinstance(node, ast.Attribute):
            self.sites[node.attr].add((rel, node.lineno))
        elif isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id in _LOOKUPS):
            self._strings(node.args[1:2], rel)
        elif isinstance(node, ast.keyword) and node.arg == "inline":
            # a primitive's inline template, ``inline="{0}.swapped()"``,
            # is the call the JIT emits
            if isinstance(node.value, ast.Constant):
                for name in _INLINE_CALL.findall(node.value.value):
                    self.sites[name].add((rel, node.value.lineno))
        elif by_string and isinstance(node, ast.Constant):
            self._strings([node], rel)
        for child in ast.iter_child_nodes(node):
            self._walk(child, rel, by_string)

    def _strings(self, nodes: list[ast.expr], rel: str) -> None:
        for node in nodes:
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and _IDENT.fullmatch(node.value)):
                self.sites[node.value].add((rel, node.lineno))

    def outside(self, fn: Function) -> bool:
        """Is ``fn``'s name spelled anywhere but inside its own body?"""
        own = f"src/repro/{fn.path}"
        return any(rel != own or not fn.line <= line <= fn.end
                   for rel, line in self.sites.get(fn.name, ()))


def _registry(root: Path) -> tuple[dict[str, str | None], set[str]]:
    """``({registered experiment: decorated function or None}, {the
    experiment of every Scenario(name, experiment, ...)})``."""
    registered: dict[str, str | None] = {}

    def name_of(call: ast.expr) -> str | None:
        if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == "register" and call.args
                and isinstance(call.args[0], ast.Constant)):
            return call.args[0].value
        return None

    for node in ast.walk(_parse(root / "src/repro/harness/registry.py")):
        if isinstance(node, ast.Call) and name_of(node.func):
            registered[name_of(node.func)] = None
        elif isinstance(node, ast.FunctionDef):
            for deco in node.decorator_list:
                if name_of(deco):
                    registered[name_of(deco)] = node.name
    scenarios: set[str] = set()
    for path in (root / "src").rglob("*.py"):
        for node in ast.walk(_parse(path)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "Scenario" and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)):
                scenarios.add(node.args[1].value)
    return registered, scenarios


def _dispatched(fn: Function, root: Path) -> bool:
    prefix = DISPATCH_PREFIXES.get(fn.path)
    return (prefix is not None and fn.name.startswith(prefix)
            and f'"{prefix}"' in (root / "src/repro" / fn.path).read_text())


@dataclass
class Census:
    #: neither referenced, nor a dunder, nor reached by a rule
    unreferenced: list[Function]
    #: registered experiments no Scenario runs
    unrun_experiments: list[str]


def take_census(root: Path = REPO) -> Census:
    fns = functions(root)
    refs = References(root)
    registered, scenarios = _registry(root)
    run_by_scenario = {fn for name, fn in registered.items()
                       if fn and name in scenarios}
    unreferenced = [
        fn for fn in fns
        if not (fn.name.startswith("__") and fn.name.endswith("__"))
        and not refs.outside(fn)
        and not (fn.path == "harness/registry.py"
                 and fn.name in run_by_scenario)
        and not _dispatched(fn, root)]
    return Census(unreferenced, sorted(set(registered) - scenarios))


@pytest.fixture(scope="module")
def census() -> Census:
    return take_census()


def test_every_function_has_a_caller(census):
    missing = [fn for fn in census.unreferenced
               if fn.key not in _ALLOWED_ENTRIES]
    assert not missing, (
        f"{len(missing)} function(s) that nothing in src/, bench/ or "
        "examples/ names — delete each, move it under tests/, or give it "
        "an ALLOWED entry with its reason:\n"
        + "\n".join(f"  {fn}" for fn in missing))


def test_every_registered_experiment_runs_in_some_scenario(census):
    assert not census.unrun_experiments, (
        "registry entries no Scenario runs (an experiment no matrix "
        f"reaches): {census.unrun_experiments}")


def test_allow_list_is_capped_reasoned_and_live(census):
    assert len(_ALLOWED_ENTRIES) <= MAX_UNREFERENCED
    assert all(reason.strip() for reason in ALLOWED)
    assert all(entries for entries in ALLOWED.values())
    listed = sum(len(entries) for entries in ALLOWED.values())
    assert listed == len(_ALLOWED_ENTRIES), "an entry is listed twice"
    stale = _ALLOWED_ENTRIES - {fn.key for fn in census.unreferenced}
    assert not stale, (f"allow-list entries that no longer need allowing "
                       f"(function gone, or something names it): "
                       f"{sorted(stale)}")
