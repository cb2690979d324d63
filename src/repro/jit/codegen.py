"""The PLAN-P JIT, backend 2: Python source generation.

Tempo's run-time specializer assembles and patches machine-code
*templates* that were produced by a standard C compiler at build time.
The CPython analogue is to emit Python source for each channel and
``fun``, then hand it to the built-in ``compile()`` — the host compiler
plays gcc's role and CPython bytecode plays the role of the machine-code
templates.  Like the closure backend, code generation happens at program
download time and embeds resolved primitive references.

The translation is statement-based A-normal form: every PLAN-P
expression becomes a Python expression where possible, with ``if``/
``let``/``try`` lowered to statements assigning a fresh temporary.

Emission and bytecode compilation depend only on the checked program,
not on the downloading node, so they are split out as a
:class:`SourceArtifact` that the content-addressed program cache
(:mod:`repro.jit.pipeline`) shares across nodes; when a ``val`` reads
the node, only global-``val`` evaluation and the final ``exec`` happen
per node, and when the globals are static the cache shares the whole
engine.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from types import CodeType
from typing import Callable

from ..lang import ast
from ..lang.errors import PlanPRuntimeError
from ..lang.typechecker import ProgramInfo
from ..interp.context import ExecutionContext
from ..interp.interpreter import Interpreter, _sml_div
from ..interp.primitives import INLINE_NAMES, PRIMITIVES
from ..interp.values import UNIT, default_value
from ..net.addresses import HostAddr

#: Bumped whenever the shape of the generated code changes (new entry
#: points, different lowering), so the content-addressed program cache
#: never serves artifacts emitted by an older generator.
CODEGEN_REV = 6

_SIMPLE_BINOPS = {
    "+": "+",
    "-": "-",
    "*": "*",
    "<": "<",
    ">": ">",
    "<=": "<=",
    ">=": ">=",
    "^": "+",
}


def _planp_raise(exn: str, message: str) -> PlanPRuntimeError:
    raise PlanPRuntimeError(message, exception_name=exn)


def _mangle(name: str) -> str:
    """PLAN-P identifiers may contain primes; Python's cannot."""
    return name.replace("'", "_prime_")


def _channel_fn_name(decl: ast.ChannelDecl, index: int) -> str:
    return f"C_{decl.name}_{index}"


def _init_fn_name(decl: ast.ChannelDecl, index: int) -> str:
    return f"I_{decl.name}_{index}"


def _rebindable_names(params: list[str], body: ast.Expr) -> set[str]:
    """The (mangled) names whose ``L_*`` local ``body`` may *reassign*.

    ``let`` lowers to a plain Python assignment, so a local is written
    twice when two lets bind its name, or when a let shadows a
    parameter; any other ``L_*`` name is written exactly once, before
    its first use."""
    bound = Counter(_mangle(binding.name) for node in ast.walk(body)
                    if type(node) is ast.Let for binding in node.bindings)
    return {name for name, count in bound.items()
            if count > 1 or name in params}


class _Emitter:
    """Accumulates generated Python source with indentation."""

    def __init__(self):
        self.lines: list[str] = []
        self._indent = 0

    def emit(self, line: str) -> None:
        self.lines.append("    " * self._indent + line)

    def push(self) -> None:
        self._indent += 1

    def pop(self) -> None:
        self._indent -= 1

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


@dataclass
class SourceArtifact:
    """The node-independent output of code generation.

    Channel/init function names are derived deterministically from the
    program's channel order, so any engine built over the same checked
    program can bind them after ``exec``-ing ``code``.
    """

    generated_source: str
    code: CodeType
    host_constants: dict[str, HostAddr]


def generate_source_artifact(info: ProgramInfo) -> SourceArtifact:
    """Emit and bytecode-compile a checked program (no node context)."""
    return _CodeGenerator(info).build()


class _CodeGenerator:
    """Translates a checked program to Python source (pure function of
    the program: global ``val`` references become ``G_*`` names resolved
    from the module namespace at run time)."""

    def __init__(self, info: ProgramInfo):
        self._info = info
        self._temp = 0
        self._global_names = {decl.name for decl in info.program.vals}
        self._host_constants: dict[str, HostAddr] = {}
        self._rebindable: set[str] = set()

    def build(self) -> SourceArtifact:
        emitter = _Emitter()
        for name, fun in self._info.funs.items():
            self._emit_function(
                emitter, f"F_{_mangle(name)}",
                [_mangle(p.name) for p in fun.decl.params], fun.decl.body)

        for i, decl in enumerate(self._info.all_channels()):
            self._emit_function(
                emitter, _channel_fn_name(decl, i),
                [_mangle(p.name) for p in decl.params], decl.body)
            if decl.initstate is not None:
                self._emit_function(emitter, _init_fn_name(decl, i),
                                    [], decl.initstate)

        source = emitter.source()
        code = compile(source, f"<planp-jit "
                       f"{self._info.program.source_name}>", "exec")
        return SourceArtifact(generated_source=source, code=code,
                              host_constants=dict(self._host_constants))

    def _emit_function(self, emitter: _Emitter, fn_name: str,
                       params: list[str], body: ast.Expr) -> None:
        """``def fn_name(ctx, L_<param>...)`` over ``body`` (``params``:
        the mangled PLAN-P parameter names)."""
        locals_ = ", ".join(["ctx"] + [f"L_{p}" for p in params])
        emitter.emit(f"def {fn_name}({locals_}):")
        emitter.push()
        self._rebindable = _rebindable_names(params, body)
        result = self._expr(emitter, body)
        emitter.emit(f"return {result}")
        emitter.pop()
        emitter.emit("")

    def _fresh(self) -> str:
        self._temp += 1
        return f"_t{self._temp}"

    _ATOMIC = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$|^-?[0-9]+$|^'[^\\']*'$")

    def _pinned(self, em: _Emitter, expr: ast.Expr) -> str:
        """Translate ``expr`` and pin the result to a temporary unless it
        is already atomic.  Pinning forces every operand's value to be
        computed at the point its statements were emitted, so generated
        statement order equals PLAN-P evaluation order even when a later
        sibling operand lowers to statements."""
        text = self._expr(em, expr)
        if self._ATOMIC.match(text) and not (
                text.startswith("L_") and text[2:] in self._rebindable):
            # A let-rebindable local is *not* a safe pin result: a later
            # sibling's ``L_x = ...`` would clobber it before use.
            return text
        tmp = self._fresh()
        em.emit(f"{tmp} = {text}")
        return tmp

    # -- expression translation ------------------------------------------------
    #
    # _expr returns a Python *expression string*; statement-shaped PLAN-P
    # constructs emit statements into ``em`` and return a temporary name.

    def _expr(self, em: _Emitter, expr: ast.Expr) -> str:
        kind = type(expr)
        if kind is ast.IntLit:
            return repr(expr.value)
        if kind is ast.BoolLit:
            return "True" if expr.value else "False"
        if kind is ast.StringLit:
            return repr(expr.value)
        if kind is ast.CharLit:
            return repr(expr.value)
        if kind is ast.UnitLit:
            return "UNIT"
        if kind is ast.HostLit:
            # Host literals are hoisted to named constants in the module
            # namespace (parsed once, at code-generation time).
            key = "H_" + expr.value.replace(".", "_")
            self._host_constants[key] = HostAddr.parse(expr.value)
            return key
        if kind is ast.Var:
            if expr.name in self._global_names:
                return f"G_{_mangle(expr.name)}"
            return f"L_{_mangle(expr.name)}"
        if kind is ast.BinOp:
            return self._binop(em, expr)
        if kind is ast.UnOp:
            operand = self._pinned(em, expr.operand)
            if expr.op == "not":
                return f"(not {operand})"
            return f"(-{operand})"
        if kind is ast.If:
            cond = self._expr(em, expr.cond)
            out = self._fresh()
            em.emit(f"if {cond}:")
            em.push()
            then = self._expr(em, expr.then)
            em.emit(f"{out} = {then}")
            em.pop()
            em.emit("else:")
            em.push()
            orelse = self._expr(em, expr.orelse)
            em.emit(f"{out} = {orelse}")
            em.pop()
            return out
        if kind is ast.Let:
            for binding in expr.bindings:
                value = self._expr(em, binding.value)
                em.emit(f"L_{_mangle(binding.name)} = {value}")
            return self._expr(em, expr.body)
        if kind is ast.Seq:
            result = "UNIT"
            for e in expr.exprs:
                result = self._pinned(em, e)
            return result
        if kind is ast.TupleExpr:
            elems = [self._pinned(em, e) for e in expr.elems]
            return "(" + ", ".join(elems) + ")"
        if kind is ast.Proj:
            target = self._pinned(em, expr.tuple_expr)
            return f"{target}[{expr.index - 1}]"
        if kind is ast.Call:
            return self._call(em, expr)
        if kind is ast.Try:
            out = self._fresh()
            em.emit("try:")
            em.push()
            body = self._expr(em, expr.body)
            em.emit(f"{out} = {body}")
            em.pop()
            em.emit("except PlanPRuntimeError as _err:")
            em.push()
            if expr.exn != "_":
                em.emit(f"if _err.exception_name != {expr.exn!r}:")
                em.push()
                em.emit("raise")
                em.pop()
            handler = self._expr(em, expr.handler)
            em.emit(f"{out} = {handler}")
            em.pop()
            return out
        if kind is ast.Raise:
            tmp = self._fresh()
            em.emit(f"{tmp} = planp_raise({expr.exn!r}, "
                    f"'exception {expr.exn}')")
            return tmp
        raise TypeError(f"codegen cannot compile {kind.__name__}")

    def _binop(self, em: _Emitter, expr: ast.BinOp) -> str:
        op = expr.op
        if op in ("andalso", "orelse"):
            # Short-circuit via statements so the right operand's emitted
            # statements (if any) only run when required.
            out = self._fresh()
            left = self._expr(em, expr.left)
            em.emit(f"{out} = {left}")
            if op == "andalso":
                em.emit(f"if {out}:")
            else:
                em.emit(f"if not {out}:")
            em.push()
            right = self._expr(em, expr.right)
            em.emit(f"{out} = {right}")
            em.pop()
            return out
        left = self._pinned(em, expr.left)
        right = self._pinned(em, expr.right)
        if op in _SIMPLE_BINOPS:
            return f"({left} {_SIMPLE_BINOPS[op]} {right})"
        # ``=``/``<>`` are ``values_equal``, which is ``==`` on every
        # representation an equality type has
        if op == "=":
            return f"({left} == {right})"
        if op == "<>":
            return f"({left} != {right})"
        if op in ("/", "mod"):
            message = ("division by zero" if op == "/" else "mod by zero")
            em.emit(f"if {right} == 0:")
            em.push()
            em.emit(f"planp_raise('DivideByZero', {message!r})")
            em.pop()
            if op == "/":
                return f"sml_div({left}, {right})"
            return f"({left} % {right})"
        if op == "::":
            return f"{right}.cons({left})"
        raise TypeError(f"unknown operator {op!r}")

    def _call(self, em: _Emitter, expr: ast.Call) -> str:
        name = expr.func
        if name == "OnRemote":
            chan = expr.args[0].name  # type: ignore[union-attr]
            packet = self._pinned(em, expr.args[1])
            tmp = self._fresh()
            em.emit(f"ctx.emit_remote({chan!r}, {packet})")
            em.emit(f"{tmp} = UNIT")
            return tmp
        if name == "OnNeighbor":
            chan = expr.args[0].name  # type: ignore[union-attr]
            packet = self._pinned(em, expr.args[1])
            neighbor = self._pinned(em, expr.args[2])
            tmp = self._fresh()
            em.emit(f"ctx.emit_neighbor({chan!r}, {packet}, {neighbor})")
            em.emit(f"{tmp} = UNIT")
            return tmp
        args = [self._pinned(em, a) for a in expr.args]
        if name in self._info.funs:
            fn = f"F_{_mangle(name)}"
            return f"{fn}(ctx, {', '.join(args)})" if args else f"{fn}(ctx)"
        inline = PRIMITIVES[name].inline
        if inline is not None:
            # The arguments are atomic (names or literals), so pasting
            # the body over them — however often it mentions one —
            # evaluates each exactly once, in order, as the call did.
            return f"({inline.format(*args)})"
        return f"P_{name}(ctx, ({', '.join(args)}{',' if args else ''}))"


class CompiledSourceEngine:
    """A program compiled to Python source, then to CPython bytecode.

    When ``artifact`` is supplied (by the program cache), instantiation
    skips emission and bytecode compilation entirely: an interpreter
    evaluates the globals against ``ctx`` and the shared code object is
    ``exec``-bound over them.
    """

    backend_name = "source"

    def __init__(self, info: ProgramInfo, ctx: ExecutionContext,
                 artifact: SourceArtifact | None = None):
        self._info = info
        if artifact is None:
            artifact = generate_source_artifact(info)
        self.artifact = artifact
        self.generated_source = artifact.generated_source
        self._channel_fns: dict[int, Callable] = {}
        self._init_fns: dict[int, Callable] = {}
        self._instantiate(ctx)

    # -- engine interface ----------------------------------------------------

    def initial_channel_state(self, decl: ast.ChannelDecl,
                              ctx: ExecutionContext) -> object:
        fn = self._init_fns.get(id(decl))
        if fn is None:
            return default_value(decl.channel_state_type)
        return fn(ctx)

    def run_channel(self, decl: ast.ChannelDecl, protocol_state: object,
                    channel_state: object, packet_value: tuple,
                    ctx: ExecutionContext) -> tuple[object, object]:
        return self._channel_fns[id(decl)](
            ctx, protocol_state, channel_state, packet_value)

    # -- per-node instantiation --------------------------------------------------

    def _instantiate(self, ctx: ExecutionContext) -> None:
        # The interpreter evaluates the globals against ``ctx``, and the
        # module reads them as constants.
        self._globals = Interpreter(self._info, ctx).globals.bindings
        namespace = self._runtime_namespace()
        exec(self.artifact.code, namespace)

        for i, decl in enumerate(self._info.all_channels()):
            self._channel_fns[id(decl)] = namespace[_channel_fn_name(decl, i)]
            if decl.initstate is not None:
                self._init_fns[id(decl)] = namespace[_init_fn_name(decl, i)]

    def _runtime_namespace(self) -> dict[str, object]:
        """Names visible to the generated module: resolved primitives,
        global constants and the small run-time support surface."""
        namespace: dict[str, object] = {
            "UNIT": UNIT,
            "sml_div": _sml_div,
            "planp_raise": _planp_raise,
            "PlanPRuntimeError": PlanPRuntimeError,
            **INLINE_NAMES,
        }
        for name, prim in PRIMITIVES.items():
            if prim.inline is None:
                namespace[f"P_{name}"] = prim.impl
        for name, value in self._globals.items():
            namespace[f"G_{_mangle(name)}"] = value
        namespace.update(self.artifact.host_constants)
        return namespace
