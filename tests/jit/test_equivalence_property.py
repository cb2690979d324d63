"""Property: interpreter ≡ closure JIT ≡ source JIT.

This is the reproduction's core correctness property for the paper's
central mechanism — a JIT *derived from* the interpreter must preserve
its semantics exactly.  Hypothesis generates random well-typed programs
(see tests/strategies.py) and the three engines must agree on the final
protocol state, the emission stream and console output.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interp import RecordingContext
from repro.interp.primitives import OPERATORS, PRIMITIVES
from repro.interp.values import PlanPTable, default_value
from repro.jit import BACKENDS, make_engine
from repro.lang import PlanPRuntimeError, parse, typecheck
from repro.lang import types as T

from ..conftest import tcp_packet_value
from ..interp._reference_values import conforms
from ..strategies import programs, values

PACKETS = [tcp_packet_value(payload=b"abcdef"),
           tcp_packet_value(sport=1, dport=443, payload=b""),
           tcp_packet_value(payload=b"zz", syn=True)]


def run_engine(info, backend):
    engine = make_engine(info, backend, RecordingContext())
    decl = info.channels["network"][0]
    ctx = RecordingContext(seed=7)
    ps = default_value(decl.protocol_state_type)
    ss = engine.initial_channel_state(decl, ctx)
    for packet in PACKETS:
        ps, ss = engine.run_channel(decl, ps, ss, packet, ctx)
    return ps, [(e.kind, e.channel, e.packet_value)
                for e in ctx.emissions], ctx.printed


@given(programs())
@settings(max_examples=120, deadline=None)
def test_engines_agree_on_random_programs(source):
    info = typecheck(parse(source))
    interp = run_engine(info, "interpreter")
    closure = run_engine(info, "closure")
    compiled = run_engine(info, "source")
    assert closure == interp
    assert compiled == interp


# ---------------------------------------------------------------------------
# Inlined primitives and operators: one operation at a time
# ---------------------------------------------------------------------------

#: the key type of generated tables (their own type does not say)
_KEY_TYPE = T.TupleType((T.HOST, T.INT))
_TABLE, _KEY, _LIST = "(int) hash_table", str(_KEY_TYPE), "(int) list"

#: every primitive registered with an ``inline=`` template, at one
#: concrete signature: name -> (argument types, result type)
INLINED = {
    "ipSrc": (["ip"], "host"), "ipDst": (["ip"], "host"),
    "ipSrcSet": (["ip", "host"], "ip"), "ipDestSet": (["ip", "host"], "ip"),
    "ipTTL": (["ip"], "int"), "ipProto": (["ip"], "int"),
    "ipTos": (["ip"], "int"), "ipTosSet": (["ip", "int"], "ip"),
    "ipSwap": (["ip"], "ip"), "ipMk": (["host", "host"], "ip"),
    "tcpSrc": (["tcp"], "int"), "tcpDst": (["tcp"], "int"),
    "tcpSrcSet": (["tcp", "int"], "tcp"),
    "tcpDstSet": (["tcp", "int"], "tcp"),
    "tcpSeq": (["tcp"], "int"), "tcpAck": (["tcp"], "int"),
    "tcpSyn": (["tcp"], "bool"), "tcpFin": (["tcp"], "bool"),
    "tcpAckFlag": (["tcp"], "bool"), "tcpRst": (["tcp"], "bool"),
    "tcpSwap": (["tcp"], "tcp"), "tcpMk": (["int", "int"], "tcp"),
    "udpSrc": (["udp"], "int"), "udpDst": (["udp"], "int"),
    "udpSrcSet": (["udp", "int"], "udp"),
    "udpDstSet": (["udp", "int"], "udp"),
    "udpSwap": (["udp"], "udp"), "udpMk": (["int", "int"], "udp"),
    "blobLen": (["blob"], "int"), "blobCat": (["blob", "blob"], "blob"),
    "blobOfString": (["string"], "blob"),
    "stringOfBlob": (["blob"], "string"),
    "blobIndex": (["blob", "string"], "int"), "blobEmpty": ([], "blob"),
    "strLen": (["string"], "int"),
    "strCat": (["string", "string"], "string"),
    "strIndex": (["string", "string"], "int"),
    "intToString": (["int"], "string"),
    "hostToString": (["host"], "string"), "charPos": (["char"], "int"),
    "mkTable": (["int"], _TABLE),
    "tableGetDefault": ([_TABLE, _KEY, "int"], "int"),
    "tableMem": ([_TABLE, _KEY], "bool"), "tableSize": ([_TABLE], "int"),
    "listNew": ([], _LIST), "listLen": ([_LIST], "int"),
    "listNull": ([_LIST], "bool"), "listRev": ([_LIST], _LIST),
    "listMem": (["int", _LIST], "bool"),
}

#: ``=``/``<>`` (``==``/``!=`` in generated source) over every shape of
#: equality type
EQUALITY_TYPES = ["int", "bool", "string", "char", "host", "blob", "unit",
                  _KEY, _LIST, f"({_KEY})*({_LIST})"]


def test_inlined_table_is_the_registry():
    assert set(INLINED) == {name for name, prim in PRIMITIVES.items()
                            if prim.inline is not None}


def _paren(ty: str) -> str:
    return f"({ty})" if "*" in ty or " " in ty else ty


def _one_operation(arg_types: list[str], result_type: str, operation):
    """A program whose protocol state is the operands and whose new
    channel state is ``operation(operand expressions)``, compiled on
    every backend: (engines, channel, operand value strategy)."""
    n = len(arg_types)
    ps_type = "*".join(map(_paren, arg_types)) if n else "unit"
    # two or more operands travel as a tuple, one as ``ps`` itself
    operands = ([f"#{i + 1} ps" for i in range(n)] if n > 1
                else ["ps"] * n)
    info = typecheck(parse(
        f"channel network(ps : {ps_type}, ss : {result_type}, "
        f"p : ip*tcp*blob) is\n  (ps, {operation(operands)})\n"))
    decl = info.channels["network"][0]
    engines = {backend: make_engine(info, backend, RecordingContext())
               for backend in BACKENDS}
    return engines, decl, values(decl.protocol_state_type, key=_KEY_TYPE)


def _outcome(engine, decl, operands):
    """What one invocation yields — a comparable value, or the exception
    it raised (Python-level ones included: an inlined body and the
    ``impl`` derived from it must fail alike too)."""
    try:
        _ps, result = engine.run_channel(decl, operands, None,
                                         PACKETS[0], RecordingContext())
    except PlanPRuntimeError as err:
        return PlanPRuntimeError, err.exception_name, str(err)
    except Exception as err:
        return type(err), str(err)
    assert conforms(result, decl.channel_state_type), result
    if isinstance(result, PlanPTable):  # compares by identity
        return PlanPTable, result.capacity, list(result.items())
    return type(result), result


def _assert_backends_agree(engines, decl, operands):
    want = _outcome(engines["interpreter"], decl, operands)
    assert _outcome(engines["closure"], decl, operands) == want
    assert _outcome(engines["source"], decl, operands) == want


@pytest.mark.parametrize("name", sorted(INLINED))
def test_inlined_primitive_agrees_with_its_impl(name):
    """The expression the source backend pastes, the ``impl`` derived
    from the same template (interpreter) and the closure backend's call
    of it give one outcome on arbitrary well-typed operands."""
    arg_types, result_type = INLINED[name]
    engines, decl, operands = _one_operation(
        arg_types, result_type, lambda xs: f"{name}({', '.join(xs)})")
    assert f"P_{name}(" not in engines["source"].generated_source

    @given(operands)
    @settings(max_examples=40, deadline=None)
    def check(value):
        _assert_backends_agree(engines, decl, value)

    check()


#: each operand class of OPERATORS at concrete types: (left, right,
#: result); a unary operator takes the left one.  ``=``/``<>`` run at
#: every equality shape in test_lowered_equality_agrees.
_SIGNATURES = {
    "int": [("int", "int", "int")],
    "string": [("string", "string", "string")],
    "bool": [("bool", "bool", "bool")],
    "equality": [("int", "int", "bool")],
    "ordered": [(ty, ty, "bool") for ty in ("int", "string", "char")],
    "cons": [("int", _LIST, _LIST)],
}


def _check_operator(op: str, arity: int, left: str, right: str,
                    result: str) -> None:
    """The interpreter, the closure backend (both calling the entry's
    value function) and the source backend (pasting its template) give
    one outcome, raises included; equal operands are drawn often."""
    if arity == 1:
        engines, decl, operands = _one_operation(
            [left], result, lambda xs: f"{op} {xs[0]}")
    else:
        engines, decl, operands = _one_operation(
            [left, right], result, lambda xs: f"{xs[0]} {op} {xs[1]}")
        if left == right:
            operands = st.one_of(operands, operands.map(
                lambda v: (v[0], v[0])))
        if OPERATORS[arity][op].raises is not None:
            operands = st.one_of(operands, operands.map(
                lambda v: (v[0], 0)))

    @given(operands)
    @settings(max_examples=40, deadline=None)
    def check(value):
        _assert_backends_agree(engines, decl, value)

    check()


@pytest.mark.parametrize("arity,op", sorted(
    (arity, op) for arity, ops in OPERATORS.items() for op in ops))
def test_operator_agrees(arity, op):
    for left, right, result in _SIGNATURES[OPERATORS[arity][op].operands]:
        _check_operator(op, arity, left, right, result)


@pytest.mark.parametrize("op", ["=", "<>"])
@pytest.mark.parametrize("ty", EQUALITY_TYPES)
def test_lowered_equality_agrees(ty, op):
    _check_operator(op, 2, ty, ty, "bool")


@pytest.mark.parametrize("token,exn,message", [
    ("/", "DivideByZero", "division by zero"),
    ("mod", "DivideByZero", "mod by zero"),
    ("raise", "Oops", "exception Oops"),
])
def test_raise_reads_the_same_on_every_backend(token, exn, message):
    """A fault names its source position (the operator's, or the
    ``raise``'s) on every backend: the same ``PlanPRuntimeError`` text
    reaches ``PlanPLayer``'s ``error`` event whichever engine ran the
    packet."""
    body = "raise Oops" if token == "raise" else f"#1 ps {token} #2 ps"
    line = f"  (ps, {body})"
    info = typecheck(parse(
        "exception Oops\n"
        "channel network(ps : int*int, ss : int, p : ip*tcp*blob) is\n"
        f"{line}\n"))
    decl = info.channels["network"][0]
    texts = set()
    for backend in BACKENDS:
        engine = make_engine(info, backend, RecordingContext())
        with pytest.raises(PlanPRuntimeError) as caught:
            engine.run_channel(decl, (7, 0), None, PACKETS[0],
                               RecordingContext())
        assert caught.value.exception_name == exn, backend
        texts.add(str(caught.value))
    assert texts == {f"3:{line.index(token) + 1}: {message}"}


def test_mod_is_the_remainder_of_division():
    """``/`` truncates toward zero and ``mod`` is its remainder, zero or
    the sign of the dividend (docs/LANGUAGE.md), on every backend: for
    ``b`` not 0, ``(a / b) * b + a mod b = a``."""
    engines, decl, _operands = _one_operation(
        ["int", "int"], "int*int",
        lambda xs: f"(({xs[0]} / {xs[1]}) * {xs[1]} + {xs[0]} mod {xs[1]}, "
                   f"{xs[0]} mod {xs[1]})")

    @given(st.integers(), st.integers().filter(bool))
    @settings(max_examples=200, deadline=None)
    def check(a, b):
        for backend, engine in engines.items():
            _ps, (back, rem) = engine.run_channel(
                decl, (a, b), None, PACKETS[0], RecordingContext())
            assert back == a, backend
            assert rem == 0 or (rem < 0) == (a < 0), backend

    check()
