"""The options census: every defaulted parameter has somebody who sets it.

A defaulted parameter of a public function, method or ``__init__``
under ``src/repro`` is a dial.  The simplicity rule is that a dial with
one value in use is a constant, so each must show one of

* a call site in ``src/``, ``bench/`` or ``examples/`` that passes it
  — by keyword, positionally past its index, or through a
  ``**mapping`` whose keys the same file spells out (a test that turns
  a dial is not a caller: a dial only tests turn is a constant);
* a ``Scenario(name, experiment, {params})`` key that names it for the
  registry experiment the scenario runs;
* an entry in ``ALLOWED`` below, with its reason.

Call sites are matched by name (``Name.id`` / ``Attribute.attr``), which
errs towards "somebody sets it" when two functions share a name; the
census is a floor under the configuration space, not a proof.  The
total is pinned as an upper bound so a new dial shows up in a diff.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
CALLER_DIRS = ("src", "bench", "examples")

#: defaulted public parameters under ``src/repro``; lower it when one
#: goes, never raise it without a caller to show
MAX_DEFAULTED = 253

#: why nobody in the tree has to set it -> ``(owner, parameter)`` entries
ALLOWED: dict[str, list[tuple[str, str]]] = {
    "ports and addresses are deployment settings": [
        ("AudioClient.__init__", "port"),
        ("AudioSource.__init__", "port"),
        ("HttpClientWorker.__init__", "port"),
        ("OpenLoopClient.__init__", "port"),
        ("HealthResponder.__init__", "port"),
        ("ClusterManager.__init__", "health_port"),
        ("BuiltinGateway.__init__", "port"),
        ("HttpServer.__init__", "port"),
        ("ImageServer.__init__", "port"),
        ("ImageClient.__init__", "port"),
        ("MpegServer.__init__", "ctrl_port"),
        ("DeploymentService.__init__", "port"),
        ("DeploymentManager.__init__", "port"),
        ("Network.__init__", "base_addr"),
    ],
    "a push's verify flag is a deployment setting: the operator's "
    "privilege to ship a program the verifier rejects, carried on the "
    "push's header line": [
        ("DeploymentManager.push", "verify"),
    ],
    "repro.asps template parameters are the paper's adaptation surface: "
    "a deployment is specialised by regenerating the program": [
        ("link_compressor_asp", "min_bytes"),
        ("http_gateway_asp", "table_size"),
        ("http_gateway_asp", "strategy"),
        ("audio_router_asp", "headroom_low_kbps"),
        ("audio_router_asp", "headroom_mid_kbps"),
        ("mpeg_monitor_asp", "table_size"),
        ("mpeg_client_asp", "table_size"),
        ("shedding_asp", "syn_budget"),
        ("shedding_asp", "window_ms"),
        ("shedding_asp", "byte_budget"),
        ("shedding_asp", "block_ms"),
        ("shedding_asp", "table_size"),
    ],
    "a test substitutes a fake: the campaign validates a verdict "
    "function, and its non-vacuity drills hand it a broken one": [
        ("run_pair_campaign", "checker"),
    ],
}
_ALLOWED_ENTRIES = {entry for entries in ALLOWED.values()
                    for entry in entries}


@dataclass(frozen=True)
class Param:
    path: str          # repo-relative file
    line: int
    owner: str         # ``func`` or ``Class.method``
    name: str
    call_names: frozenset[str]   # names a call site can use
    index: int | None  # positional index at the call site; None = kw-only

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.owner}({self.name}=...)"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_public(name: str) -> bool:
    return name == "__init__" or not name.startswith("_")


def _decorators(fn: ast.FunctionDef) -> set[str]:
    return {d.id if isinstance(d, ast.Name) else getattr(d, "attr", "")
            for d in fn.decorator_list}


def _constructor_names(classes: dict[str, ast.ClassDef]) -> dict[str, set[str]]:
    """Class name -> every name that reaches its ``__init__``: itself
    plus subclasses (by simple name) that do not define their own."""
    names = {name: {name} for name in classes}
    changed = True
    while changed:
        changed = False
        for name, cls in classes.items():
            if any(isinstance(n, ast.FunctionDef) and n.name == "__init__"
                   for n in cls.body):
                continue
            for base in cls.bases:
                base_name = getattr(base, "id", getattr(base, "attr", None))
                if base_name in names and not names[name] <= names[base_name]:
                    names[base_name] |= names[name]
                    changed = True
    return names


def defaulted_params(root: Path = REPO) -> list[Param]:
    """Every defaulted parameter of a public module-level function or a
    public method / ``__init__`` of a module-level class."""
    trees = {path: _parse(path)
             for path in sorted((root / "src" / "repro").rglob("*.py"))}
    classes = {node.name: node for tree in trees.values()
               for node in tree.body if isinstance(node, ast.ClassDef)}
    ctor_names = _constructor_names(classes)
    found: list[Param] = []

    def visit(fn: ast.FunctionDef, rel: str, cls: str | None) -> None:
        if not _is_public(fn.name):
            return
        bound = cls is not None and "staticmethod" not in _decorators(fn)
        if fn.name == "__init__":
            call_names = frozenset(ctor_names[cls])
        else:
            call_names = frozenset({fn.name})
        owner = f"{cls}.{fn.name}" if cls else fn.name
        positional = fn.args.posonlyargs + fn.args.args
        first_default = len(positional) - len(fn.args.defaults)
        for i, arg in enumerate(positional):
            if i >= first_default:
                found.append(Param(rel, arg.lineno, owner, arg.arg,
                                   call_names, i - bound))
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                found.append(Param(rel, arg.lineno, owner, arg.arg,
                                   call_names, None))

    for path, tree in trees.items():
        rel = path.relative_to(root).as_posix()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node, rel, None)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        visit(item, rel, node.name)
    return found


def _call_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _mapping_keys(tree: ast.Module) -> set[str]:
    """Every string a ``{...}`` literal keys on and every keyword of a
    ``dict(...)`` call: what a ``**mapping`` built in this file holds."""
    keys: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys |= {k.value for k in node.keys
                     if isinstance(k, ast.Constant)
                     and isinstance(k.value, str)}
        elif isinstance(node, ast.Call) and _call_name(node.func) == "dict":
            keys |= {kw.arg for kw in node.keywords if kw.arg}
    return keys


def _experiment_functions(root: Path) -> dict[str, set[str]]:
    """Registry experiment name -> the functions its scenario params
    reach, read off ``harness/registry.py``: ``register("x", ...)(fn)``
    hands them to ``fn``; a decorated wrapper hands them to whatever it
    calls with ``**params``."""
    tree = _parse(root / "src/repro/harness/registry.py")
    reached: dict[str, set[str]] = defaultdict(set)

    def registered(call: ast.expr) -> str | None:
        if (isinstance(call, ast.Call) and _call_name(call.func) == "register"
                and call.args and isinstance(call.args[0], ast.Constant)):
            return call.args[0].value
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and registered(node.func) and node.args:
            reached[registered(node.func)].add(_call_name(node.args[0]))
        elif isinstance(node, ast.FunctionDef):
            for deco in node.decorator_list:
                if registered(deco):
                    reached[registered(deco)] |= {
                        _call_name(call.func) for call in ast.walk(node)
                        if isinstance(call, ast.Call)
                        and any(kw.arg is None for kw in call.keywords)}
    return reached


class CallSites:
    """What the tree passes, by callee name."""

    def __init__(self, root: Path = REPO) -> None:
        self.keywords: dict[str, set[str]] = defaultdict(set)
        self.max_positional: dict[str, int] = defaultdict(int)
        #: ``def outer(**kw): inner(**kw)`` — outer's keywords reach inner
        self.forwards: set[tuple[str, str]] = set()
        self.experiments = _experiment_functions(root)
        for top in CALLER_DIRS:
            for path in sorted((root / top).rglob("*.py")):
                tree = _parse(path)
                self._walk(tree, None, _mapping_keys(tree))
        # registry.run hands every experiment its scenario's seed, and
        # an obs scope if it takes one
        for fns in self.experiments.values():
            for fn in fns:
                self.keywords[fn] |= {"seed", "obs"}
        changed = True
        while changed:
            changed = False
            for outer, inner in self.forwards:
                if not self.keywords[outer] <= self.keywords[inner]:
                    self.keywords[inner] |= self.keywords[outer]
                    changed = True

    def _walk(self, node: ast.AST, enclosing: ast.FunctionDef | None,
              mapping_keys: set[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = node
        elif isinstance(node, ast.Call):
            self._record(node, enclosing, mapping_keys)
        for child in ast.iter_child_nodes(node):
            self._walk(child, enclosing, mapping_keys)

    def _record(self, call: ast.Call, enclosing: ast.FunctionDef | None,
                mapping_keys: set[str]) -> None:
        name = _call_name(call.func)
        args = call.args
        if name is None:
            return
        self.keywords[name] |= {kw.arg for kw in call.keywords if kw.arg}
        for kw in call.keywords:
            if kw.arg is not None:
                continue
            own = enclosing.args.kwarg if enclosing else None
            if (own and isinstance(kw.value, ast.Name)
                    and kw.value.id == own.arg):
                self.forwards.add((enclosing.name, name))
            else:
                self.keywords[name] |= mapping_keys
        self.max_positional[name] = max(self.max_positional[name], len(args))
        # Scenario(name, experiment, {param: value, ...})
        if (name == "Scenario" and len(args) >= 3
                and isinstance(args[1], ast.Constant)
                and isinstance(args[2], ast.Dict)):
            keys = {k.value for k in args[2].keys
                    if isinstance(k, ast.Constant)}
            for fn in self.experiments.get(args[1].value, ()):
                self.keywords[fn] |= keys

    def sets(self, param: Param) -> bool:
        return any(
            param.name in self.keywords[name]
            or (param.index is not None
                and self.max_positional[name] > param.index)
            for name in param.call_names)


def never_set(root: Path = REPO) -> tuple[list[Param], list[Param]]:
    """``(all defaulted parameters, those no call site or scenario
    sets)`` — the allow-list not yet applied."""
    params = defaulted_params(root)
    sites = CallSites(root)
    return params, [p for p in params if not sites.sets(p)]


@pytest.fixture(scope="module")
def census() -> tuple[list[Param], list[Param]]:
    return never_set()


def test_every_defaulted_parameter_has_a_setter(census):
    unset = [p for p in census[1]
             if (p.owner, p.name) not in _ALLOWED_ENTRIES]
    assert not unset, (
        f"{len(unset)} defaulted parameter(s) that no call site, scenario "
        "or allow-list entry sets — make each a module constant or show "
        "its caller:\n" + "\n".join(f"  {p}" for p in unset))


def test_allow_list_is_short_reasoned_and_live(census):
    assert len(_ALLOWED_ENTRIES) <= 30
    assert all(reason.strip() for reason in ALLOWED)
    stale = _ALLOWED_ENTRIES - {(p.owner, p.name) for p in census[1]}
    assert not stale, (f"allow-list entries that no longer need allowing "
                       f"(parameter gone, or a caller sets it): {stale}")


def test_defaulted_parameter_total_only_goes_down(census):
    assert len(census[0]) <= MAX_DEFAULTED, (
        f"{len(census[0])} defaulted public parameters under src/repro "
        f"(bound {MAX_DEFAULTED}): a new dial needs a caller that sets "
        "it and a conscious bump of MAX_DEFAULTED")
