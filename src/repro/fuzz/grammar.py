"""Seeded generator of well-typed PLAN-P programs.

Where ``tests/strategies.py`` gives Hypothesis a shrinkable program
strategy, this module gives the fuzzing harness a *replayable* one: all
randomness flows through one :class:`random.Random`, so a campaign seed
reproduces its exact program sequence with no Hypothesis database in
the loop.

Programs are generated by target type with bounded depth over the
variables in scope, so every program type checks by construction — and
the generator aims at the *full* typechecker-accepted AST surface:
every expression node (literals of all seven scalar types, unary and
binary operators, tuples and projections, let/seq/if, try/raise over
built-in and user exceptions, primitive and user-function calls) and
every declaration form (vals, funs, exceptions, overloaded ``network``
channels with optional ``initstate``, tagged user channels).

:func:`check_grammar_coverage` is the rot guard: it generates a seed
batch, parses it, and asserts every AST node class in
:func:`ast_inventory` actually occurs.  A new language construct that
the generator does not emit fails the check — in CI and at the start of
every campaign — instead of silently going unfuzzed.
"""

from __future__ import annotations

import random

from ..lang import ast, parse

#: names given to let-bound locals (kept distinct from params/globals)
_LOCALS = [f"v{i}" for i in range(6)]

#: packet-type pool for channel overloads.  Spans raw/tcp/udp
#: transports, tail and tail-less layouts, and every fixed view kind
#: (char/bool/int/host) so dispatch, the codec, and the SoA batch
#: decoder all see every stride shape.
PACKET_TYPES = (
    "ip*tcp*blob",
    "ip*udp*blob",
    "ip*blob",
    "ip*tcp*char*blob",
    "ip*udp*int*blob",
    "ip*tcp*int*int",
    "ip*tcp*string",
    "ip*udp*string",
    "ip*udp*host*blob",
    "ip*char*int*blob",
    "ip*tcp*bool*int",
)

#: protocol-state types (shared by all channels of one program)
PROTO_STATES = ("int", "int", "int", "string", "bool",
                "(int) hash_table", "(int) list")

#: top-level val types
VAL_TYPES = ("int", "int", "bool", "string", "char", "host",
             "(int) hash_table")

#: per-channel state types
CHANNEL_STATES = ("unit", "unit", "int", "(int) hash_table")

#: extreme-but-legal int literals (the encoder's 32-bit boundary, the
#: divisor edge, and plain zero) mixed in with small values
_EXTREME_INTS = (0, 1, -1, 255, 256, 65535, 2147483647, -2147483648)

_BUILTIN_EXNS = ("NotFound", "Subscript", "HeadEmpty", "DivideByZero",
                 "BadInt", "BadPacket")


class GrammarCoverageError(AssertionError):
    """The generator failed to cover part of the AST inventory."""


def ast_inventory() -> frozenset[str]:
    """Every concrete AST node class a program can contain, derived
    from :mod:`repro.lang.ast` itself so the inventory tracks the
    language, not this module's opinion of it."""
    names = {c.__name__ for c in ast.Expr.__subclasses__()}
    names |= {c.__name__ for c in ast.Decl.__subclasses__()}
    return frozenset(names)


def _packet_leaves(packet_type: str) -> dict[str, list[str]]:
    """Typed expressions reading the packet parameter ``p``, keyed by
    the type they produce."""
    comps = packet_type.split("*")
    leaves: dict[str, list[str]] = {
        "int": [], "bool": [], "string": [], "char": [], "host": [],
        "blob": []}
    for i, comp in enumerate(comps, start=1):
        if comp == "ip":
            leaves["host"] += [f"ipSrc(#{i} p)", f"ipDst(#{i} p)"]
            leaves["int"] += [f"ipTTL(#{i} p)", f"ipTos(#{i} p)"]
        elif comp == "tcp":
            leaves["int"] += [f"tcpSrc(#{i} p)", f"tcpDst(#{i} p)",
                              f"tcpSeq(#{i} p)"]
            leaves["bool"] += [f"tcpSyn(#{i} p)", f"tcpFin(#{i} p)"]
        elif comp == "udp":
            leaves["int"] += [f"udpSrc(#{i} p)", f"udpDst(#{i} p)"]
        elif comp in leaves:
            leaves[comp].append(f"#{i} p")
    return leaves


class _Gen:
    """One program generation, driven entirely by ``rng``.

    ``overloads`` forces the ``network`` channel's packet-type list
    (the paired-program generator mutates it between two generations
    sharing one seed); ``None`` draws it from ``rng`` as usual.
    """

    def __init__(self, rng: random.Random,
                 overloads: list[str] | None = None):
        self.rng = rng
        self._forced_overloads = overloads
        self.exceptions: list[str] = []
        self.funs: list[tuple[str, list[str], str]] = []
        self.globals: dict[str, str] = {}
        self.packet_leaves: dict[str, list[str]] = {}
        self.channels: list[tuple[str, str]] = []  # (name, packet type)

    # -- expression generation --------------------------------------------------

    def _var_of(self, ty: str, env: dict[str, str]) -> list[str]:
        return [n for n, t in env.items() if t == ty]

    def leaf(self, ty: str, env: dict[str, str]) -> str:
        rng = self.rng
        pool: list[str] = list(self._var_of(ty, env))
        pool += self.packet_leaves.get(ty, [])
        if ty == "int":
            if rng.random() < 0.4:
                pool.append(str(rng.choice(_EXTREME_INTS)))
            pool.append(str(rng.randint(-100, 100)))
        elif ty == "bool":
            pool += ["true", "false"]
        elif ty == "string":
            text = "".join(rng.choices("abcxyz:/ 09", k=rng.randint(0, 5)))
            pool.append(f'"{text}"')
        elif ty == "char":
            pool.append(f'#"{rng.choice("aZ0 !")}"')
            pool.append(f"chr({rng.randint(0, 255)})")
        elif ty == "host":
            pool.append(".".join(str(rng.randint(0, 255)) for _ in range(4)))
            pool.append("thisHost()")
        elif ty == "unit":
            pool.append("()")
        elif ty == "blob":
            pool.append("blobEmpty()")
            pool.append(f'blobOfString("{rng.choice(["", "q", "data"])}")')
        elif ty == "(int) hash_table":
            pool.append(f"mkTable({rng.choice([1, 8, 256])})")
        elif ty == "(int) list":
            pool.append("listNew()")
            pool.append(f"{rng.randint(0, 9)} :: listNew()")
        if not pool:  # pragma: no cover - every type has literal leaves
            raise GrammarCoverageError(f"no leaf for type {ty}")
        return rng.choice(pool)

    def expr(self, ty: str, env: dict[str, str], depth: int) -> str:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.25:
            return self.leaf(ty, env)
        makers = [self._mk_if, self._mk_let, self._mk_try,
                  self._mk_proj_tuple, self._mk_raise]
        makers += {
            "int": [self._mk_arith, self._mk_int_prim, self._mk_unop],
            "bool": [self._mk_boolop, self._mk_cmp, self._mk_unop,
                     self._mk_bool_prim],
            "string": [self._mk_strcat, self._mk_str_prim],
            "char": [self._mk_char_prim],
            "host": [self._mk_host_prim],
            "unit": [self._mk_unit_prim],
            "blob": [self._mk_blob_prim],
            "(int) hash_table": [],
            "(int) list": [self._mk_list_prim],
        }[ty]
        fun_rets = [f for f in self.funs if f[2] == ty]
        if fun_rets:
            makers.append(self._mk_fun_call)
        return rng.choice(makers)(ty, env, depth)

    def _mk_if(self, ty, env, depth):
        return (f"(if {self.expr('bool', env, depth - 1)} "
                f"then {self.expr(ty, env, depth - 1)} "
                f"else {self.expr(ty, env, depth - 1)})")

    def _mk_let(self, ty, env, depth):
        free = [n for n in _LOCALS if n not in env]
        if not free:
            return self.leaf(ty, env)
        rng = self.rng
        inner = dict(env)
        bindings = []
        for name in free[:rng.randint(1, 2)]:
            bind_ty = rng.choice(("int", "bool", "string", "char", "host",
                                  "blob", "(int) list"))
            bindings.append(
                f"val {name} : {bind_ty} = "
                f"{self.expr(bind_ty, inner, depth - 1)}")
            inner[name] = bind_ty
        body = self.expr(ty, inner, depth - 1)
        return f"(let {' '.join(bindings)} in {body} end)"

    def _mk_try(self, ty, env, depth):
        rng = self.rng
        exn = rng.choice(list(_BUILTIN_EXNS + ("_",)) + self.exceptions)
        return (f"(try {self.expr(ty, env, depth - 1)} "
                f"handle {exn} => {self.leaf(ty, env)})")

    def _mk_raise(self, ty, env, depth):
        # raise fits any type; keep it guarded so programs stay mostly
        # productive but the fault path stays hot.
        exn = self.rng.choice(list(_BUILTIN_EXNS) + self.exceptions)
        return (f"(try (if {self.expr('bool', env, depth - 1)} "
                f"then raise {exn} else {self.leaf(ty, env)}) "
                f"handle _ => {self.leaf(ty, env)})")

    def _mk_proj_tuple(self, ty, env, depth):
        other = self.expr(self.rng.choice(("int", "bool")), env, 0)
        if self.rng.random() < 0.5:
            return f"#1 ({self.expr(ty, env, depth - 1)}, {other})"
        return f"#2 ({other}, {self.expr(ty, env, depth - 1)})"

    def _mk_arith(self, ty, env, depth):
        rng = self.rng
        op = rng.choice(("+", "-", "*", "/", "mod"))
        a = self.expr("int", env, depth - 1)
        if op in ("/", "mod") and rng.random() < 0.7:
            b = str(rng.randint(1, 50))  # provably non-zero divisor
        else:
            b = self.expr("int", env, depth - 1)  # DivideByZero possible
        return f"({a} {op} {b})"

    def _mk_unop(self, ty, env, depth):
        if ty == "bool":
            return f"(not {self.expr('bool', env, depth - 1)})"
        return f"(- {self.expr('int', env, depth - 1)})"

    def _mk_int_prim(self, ty, env, depth):
        rng = self.rng
        choice = rng.randrange(7)
        if choice == 0:
            return f"strLen({self.expr('string', env, depth - 1)})"
        if choice == 1:
            return f"blobLen({self.expr('blob', env, depth - 1)})"
        if choice == 2:
            return f"charPos({self.expr('char', env, depth - 1)})"
        if choice == 3:  # Subscript possible
            return (f"blobByte({self.expr('blob', env, depth - 1)}, "
                    f"{self.expr('int', env, depth - 1)})")
        if choice == 4:  # BadInt possible
            return f"stringToInt({self.expr('string', env, depth - 1)})"
        if choice == 5:
            return f"random({rng.randint(1, 1000)})"
        tables = self._var_of("(int) hash_table", env)
        if tables:
            return f"tableSize({rng.choice(tables)})"
        return f"listLen({self.expr('(int) list', env, depth - 1)})"

    def _mk_bool_prim(self, ty, env, depth):
        rng = self.rng
        lists = self._var_of("(int) list", env)
        tables = self._var_of("(int) hash_table", env)
        opts = []
        if lists:
            opts.append(lambda: f"listNull({rng.choice(lists)})")
            opts.append(lambda: (
                f"listMem({self.expr('int', env, depth - 1)}, "
                f"{rng.choice(lists)})"))
        if tables:
            opts.append(lambda: (
                f"tableMem({rng.choice(tables)}, "
                f"{self.expr('int', env, depth - 1)})"))
        if not opts:
            return f"listNull({self.expr('(int) list', env, depth - 1)})"
        return rng.choice(opts)()

    def _mk_boolop(self, ty, env, depth):
        op = self.rng.choice(("andalso", "orelse"))
        return (f"({self.expr('bool', env, depth - 1)} {op} "
                f"{self.expr('bool', env, depth - 1)})")

    def _mk_cmp(self, ty, env, depth):
        rng = self.rng
        cmp_ty = rng.choice(("int", "int", "string", "char", "host"))
        ops = ("=", "<>") if cmp_ty in ("char", "host") else (
            "=", "<>", "<", ">", "<=", ">=")
        return (f"({self.expr(cmp_ty, env, depth - 1)} {rng.choice(ops)} "
                f"{self.expr(cmp_ty, env, depth - 1)})")

    def _mk_strcat(self, ty, env, depth):
        return (f"({self.expr('string', env, depth - 1)} ^ "
                f"{self.expr('string', env, depth - 1)})")

    def _mk_str_prim(self, ty, env, depth):
        rng = self.rng
        choice = rng.randrange(4)
        if choice == 0:
            return f"intToString({self.expr('int', env, depth - 1)})"
        if choice == 1:
            return f"hostToString({self.expr('host', env, depth - 1)})"
        if choice == 2:
            return f"stringOfBlob({self.expr('blob', env, depth - 1)})"
        return (f"strField({self.expr('string', env, depth - 1)}, "
                f"{rng.randint(0, 3)}, \":\")")  # Subscript possible

    def _mk_char_prim(self, ty, env, depth):
        return f"chr(({self.expr('int', env, depth - 1)}) mod 256)"

    def _mk_host_prim(self, ty, env, depth):
        leaves = self.packet_leaves.get("host")
        if leaves and self.rng.random() < 0.6:
            return self.rng.choice(leaves)
        return self.leaf("host", env)

    def _mk_unit_prim(self, ty, env, depth):
        rng = self.rng
        choice = rng.randrange(3)
        if choice == 0:
            return f"print({self.expr('string', env, depth - 1)})"
        if choice == 1:
            tables = self._var_of("(int) hash_table", env)
            if tables:
                return (f"tableSet({rng.choice(tables)}, "
                        f"{self.expr('int', env, depth - 1)}, "
                        f"{self.expr('int', env, depth - 1)})")
        return "()"

    def _mk_blob_prim(self, ty, env, depth):
        rng = self.rng
        choice = rng.randrange(3)
        if choice == 0:
            return (f"blobCat({self.expr('blob', env, depth - 1)}, "
                    f"{self.expr('blob', env, depth - 1)})")
        if choice == 1:  # Subscript possible
            return (f"blobSub({self.expr('blob', env, depth - 1)}, "
                    f"{rng.randint(0, 4)}, {rng.randint(0, 4)})")
        return f"blobOfString({self.expr('string', env, depth - 1)})"

    def _mk_list_prim(self, ty, env, depth):
        rng = self.rng
        choice = rng.randrange(3)
        if choice == 0:
            return (f"({self.expr('int', env, depth - 1)} :: "
                    f"{self.expr('(int) list', env, depth - 1)})")
        if choice == 1:
            return f"listRev({self.expr('(int) list', env, depth - 1)})"
        # HeadEmpty possible
        return f"listTail({self.expr('(int) list', env, depth - 1)})"

    def _mk_fun_call(self, ty, env, depth):
        name, params, _ret = self.rng.choice(
            [f for f in self.funs if f[2] == ty])
        args = ", ".join(self.expr(t, env, depth - 1) for t in params)
        return f"{name}({args})"

    # -- declaration generation ------------------------------------------------

    def _gen_exceptions(self) -> list[str]:
        decls = []
        for i in range(self.rng.choice((0, 1, 1, 2))):
            name = f"Exn{i}"
            self.exceptions.append(name)
            decls.append(f"exception {name}")
        return decls

    def _gen_vals(self, count: int) -> list[str]:
        """``count`` top-level vals: full expressions over the globals
        and funs declared so far — every engine evaluates them once, at
        construction, so a raising initialiser refuses the program
        alike everywhere, and a ``random`` or ``mkTable`` in one is
        state the channels then share."""
        decls = []
        for _ in range(count):
            ty = self.rng.choice(VAL_TYPES)
            value = self.expr(ty, dict(self.globals), self.rng.randint(0, 2))
            name = f"k{len(self.globals)}"
            self.globals[name] = ty
            decls.append(f"val {name} : {ty} = {value}")
        return decls

    def _gen_funs(self) -> list[str]:
        decls = []
        for i in range(self.rng.choice((0, 1, 1, 2))):
            n_params = self.rng.randint(1, 2)
            params = [self.rng.choice(("int", "bool", "string"))
                      for _ in range(n_params)]
            ret = self.rng.choice(("int", "bool", "string"))
            env = dict(self.globals)
            sig = []
            for j, pt in enumerate(params):
                env[f"a{j}"] = pt
                sig.append(f"a{j} : {pt}")
            body = self.expr(ret, env, 2)
            name = f"f{i}"
            decls.append(
                f"fun {name}({', '.join(sig)}) : {ret} = {body}")
            # visible to later funs and channel bodies
            self.funs.append((name, params, ret))
        return decls

    def _gen_channel(self, name: str, packet_type: str, ps_ty: str,
                     emit_targets: list[str]) -> str:
        rng = self.rng
        ss_ty = rng.choice(CHANNEL_STATES)
        self.packet_leaves = _packet_leaves(packet_type)
        env = dict(self.globals)
        env.update({"ps": ps_ty, "ss": ss_ty})
        depth = rng.randint(1, 3)
        stmts = []
        for _ in range(rng.choice((0, 1, 1, 2))):
            kind = rng.randrange(5)
            if kind == 0 and emit_targets:
                stmts.append(f"OnRemote({rng.choice(emit_targets)}, p)")
            elif kind == 1 and emit_targets:
                stmts.append(
                    f"OnNeighbor({rng.choice(emit_targets)}, p, "
                    f"{self.expr('host', env, depth)})")
            elif kind == 2:
                stmts.append(f"deliver(p)" if rng.random() < 0.5
                             else "drop(p)")
            else:
                stmts.append(self.expr("unit", env, depth))
        result = (f"({self.expr(ps_ty, env, depth)}, "
                  f"{self.expr(ss_ty, env, depth)})")
        body = "(" + "; ".join(stmts + [result]) + ")" if stmts else result
        # initstate runs at install time, before any packet exists: the
        # packet-leaf pool must be off while it is generated.
        self.packet_leaves = {}
        init = ""
        if rng.random() < 0.4:
            init = (" initstate "
                    + self.expr(ss_ty, dict(self.globals), 1))
        return (f"channel {name}(ps : {ps_ty}, ss : {ss_ty}, "
                f"p : {packet_type}){init} is\n  {body}")

    def program(self) -> str:
        rng = self.rng
        ps_ty = rng.choice(PROTO_STATES)
        decls = self._gen_exceptions()
        decls += self._gen_vals(rng.randint(1, 2))
        decls += self._gen_funs()
        # vals after the funs may call them
        decls += self._gen_vals(rng.choice((0, 1, 1)))
        if self._forced_overloads is not None:
            overloads = list(self._forced_overloads)
        else:
            n_over = rng.randint(1, 3)
            overloads = rng.sample(PACKET_TYPES, n_over)
        aux: str | None = None
        if rng.random() < 0.35:
            aux = "aux"
        # Emission targets type check because every generated OnRemote/
        # OnNeighbor sends the *current* packet p, and aux reuses the
        # first overload's packet type.
        for pt in overloads:
            targets = ["network"]
            if aux is not None and pt == overloads[0]:
                targets.append(aux)
            decls.append(self._gen_channel("network", pt, ps_ty, targets))
        if aux is not None:
            decls.append(
                self._gen_channel(aux, overloads[0], ps_ty, [aux]))
        return "\n".join(decls) + "\n"


def gen_program(rng: random.Random,
                overloads: list[str] | None = None) -> str:
    """One well-typed PLAN-P program drawn from ``rng``; an explicit
    ``overloads`` list pins the network channel's packet types."""
    return _Gen(rng, overloads=overloads).program()


def _nodes_of(source: str) -> set[str]:
    """The AST node class names occurring in a program."""
    program = parse(source)
    seen: set[str] = set()
    for decl in program.decls:
        seen.add(type(decl).__name__)
        roots = []
        if isinstance(decl, ast.ValDecl):
            roots = [decl.value]
        elif isinstance(decl, ast.FunDecl):
            roots = [decl.body]
        elif isinstance(decl, ast.ChannelDecl):
            roots = [decl.body] + (
                [decl.initstate] if decl.initstate is not None else [])
        for root in roots:
            seen.update(type(n).__name__ for n in ast.walk(root))
    return seen


def check_grammar_coverage(seeds=range(60)) -> set[str]:
    """Generate one program per seed and assert the union of their ASTs
    covers the full node inventory.  Returns the covered set; raises
    :class:`GrammarCoverageError` naming anything missed — the signal
    that the language grew a construct this generator does not emit."""
    covered: set[str] = set()
    inventory = ast_inventory()
    for seed in seeds:
        covered |= _nodes_of(gen_program(random.Random(seed)))
        if covered >= inventory:
            return covered
    missing = sorted(inventory - covered)
    raise GrammarCoverageError(
        f"grammar never generated AST nodes {missing} across "
        f"{len(list(seeds))} seeds — extend repro.fuzz.grammar "
        f"(and tests/strategies.py) to cover them")
