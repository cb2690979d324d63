"""JIT backend unit tests: both backends match the interpreter."""

import re

import pytest

from repro.interp import RecordingContext
from repro.jit import make_engine
from repro.lang import PlanPRuntimeError, parse, typecheck

from ..conftest import tcp_packet_value, udp_packet_value
from ..corpora import SHIPPED, corpus_programs

BACKENDS = ("interpreter", "closure", "source")


def engines_for(source: str):
    info = typecheck(parse(source))
    return info, {name: make_engine(info, name, RecordingContext())
                  for name in BACKENDS}


def run_all(source: str, packets, channel="network", overload=0):
    """Run the same packets through all three engines; return per-engine
    (final ps, emissions-as-tuples, printed)."""
    info, engines = engines_for(source)
    decl = info.channels[channel][overload]
    results = {}
    for name, engine in engines.items():
        ctx = RecordingContext(seed=99)
        ps = 0 if decl.protocol_state_type.__class__.__name__ \
            == "IntType" else None
        from repro.interp.values import default_value

        ps = default_value(decl.protocol_state_type)
        ss = engine.initial_channel_state(decl, ctx)
        for packet in packets:
            ps, ss = engine.run_channel(decl, ps, ss, packet, ctx)
        results[name] = (ps, [(e.kind, e.channel, e.packet_value)
                              for e in ctx.emissions], ctx.printed)
    return results


def assert_agree(source: str, packets, **kwargs):
    results = run_all(source, packets, **kwargs)
    baseline = results["interpreter"]
    for name in ("closure", "source"):
        assert results[name] == baseline, \
            f"{name} diverges from interpreter"


class TestBasicEquivalence:
    def test_forwarding(self):
        src = ("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
               "(OnRemote(network, p); (ps + 1, ss))")
        assert_agree(src, [tcp_packet_value()] * 3)

    def test_arithmetic_and_division(self):
        src = ("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
               "(OnRemote(network, p); "
               "((ps * 7 + 3) / 2 - (0 - ps) mod 5, ss))")
        assert_agree(src, [tcp_packet_value()] * 5)

    def test_short_circuit_effects(self):
        # The right operand of andalso prints; engines must agree on
        # whether it executed.
        src = ('fun noisy(x : int) : bool = (print("side"); x > 0)\n'
               "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
               "(OnRemote(network, p); "
               "(if ps > 1 andalso noisy(ps) then ps + 10 else ps + 1, "
               "ss))")
        assert_agree(src, [tcp_packet_value()] * 4)

    def test_table_state(self):
        src = ("channel network(ps : int, ss : (int) hash_table, "
               "p : ip*tcp*blob) initstate mkTable(4) is "
               "(tableSet(ss, tcpSrc(#2 p), "
               "tableGetDefault(ss, tcpSrc(#2 p), 0) + 1); "
               "OnRemote(network, p); "
               "(tableGetDefault(ss, tcpSrc(#2 p), 0), ss))")
        packets = [tcp_packet_value(sport=s) for s in (1, 2, 1, 1, 2)]
        assert_agree(src, packets)

    def test_exceptions_and_handlers(self):
        src = ("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
               "(OnRemote(network, p); "
               "(try blobByte(#3 p, 100) handle Subscript => ps + 1, ss))")
        assert_agree(src, [tcp_packet_value(payload=b"xy")] * 2)

    def test_raise_propagates_identically(self):
        src = ("exception Boom\n"
               "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
               "(OnRemote(network, p); "
               "(if ps > 0 then raise Boom else ps + 1, ss))")
        info, engines = engines_for(src)
        decl = info.channels["network"][0]
        for name, engine in engines.items():
            ctx = RecordingContext()
            ps, ss = engine.run_channel(decl, 0, None, tcp_packet_value(),
                                        ctx)
            with pytest.raises(PlanPRuntimeError) as err:
                engine.run_channel(decl, ps, ss, tcp_packet_value(), ctx)
            assert err.value.exception_name == "Boom", name

    def test_host_literals(self):
        src = ("val mirror : host = 172.16.0.9\n"
               "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
               "(OnRemote(network, (ipDestSet(#1 p, mirror), #2 p, #3 p));"
               " (ps, ss))")
        assert_agree(src, [tcp_packet_value()])

    def test_string_building(self):
        src = ("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
               '(print("n=" ^ intToString(ps) ^ "!"); '
               "OnRemote(network, p); (ps + 1, ss))")
        assert_agree(src, [tcp_packet_value()] * 3)

    def test_overloaded_channels(self):
        src = ("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
               "(OnRemote(network, p); (ps + 1, ss))\n"
               "channel network(ps : int, ss : unit, q : ip*udp*blob) is "
               "(OnRemote(network, q); (ps + 100, ss))")
        assert_agree(src, [tcp_packet_value()], overload=0)
        assert_agree(src, [udp_packet_value()], overload=1)

    def test_random_streams_agree_across_engines(self):
        src = ("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
               "(OnRemote(network, p); (ps + random(1000), ss))")
        assert_agree(src, [tcp_packet_value()] * 4)

    def test_lists(self):
        src = ("channel network(ps : int, ss : (int) list, "
               "p : ip*tcp*blob) is "
               "(OnRemote(network, p); (listLen(ps :: ss), ps :: ss))")
        assert_agree(src, [tcp_packet_value()] * 3)

    def test_sibling_lets_reusing_a_name(self):
        # Fuzzer-found: two sibling lets binding the same name lower to
        # two assignments of one Python local, so the first let's result
        # must be pinned to a temporary before the second let clobbers
        # it.  The source engine used to return the *second* binding's
        # value as the first tuple element.
        src = ("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
               "((let val v1 : int = ps + 1 in v1 end), "
               "(let val v1 : unit = () in ss end))")
        assert_agree(src, [tcp_packet_value()] * 3)

    def test_let_shadowing_a_parameter(self):
        # Same clobber hazard when the reused name is a channel
        # parameter: `let val ps = ...` reassigns L_ps, so a pinned read
        # of the parameter must happen before the rebinding runs.
        src = ("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
               "(ps + (let val ps : int = 100 in ps end), ss)")
        assert_agree(src, [tcp_packet_value()] * 3)


class TestShippedAsps:
    """The five paper ASPs produce identical behaviour on all engines."""

    @pytest.mark.parametrize("maker", ["audio_router", "audio_client",
                                       "http_gateway"])
    def test_asp_equivalence(self, maker):
        from repro import asps

        if maker == "audio_router":
            src = asps.audio_router_asp()
            from .audio_packets import audio_packets

            packets = audio_packets()
        elif maker == "audio_client":
            src = asps.audio_client_asp()
            from .audio_packets import audio_packets

            packets = audio_packets()
        else:
            src = asps.http_gateway_asp("10.0.1.2",
                                        ["10.0.2.2", "10.0.3.2"])
            packets = [tcp_packet_value(dst="10.0.1.2", sport=s, dport=80,
                                        syn=(i == 0))
                       for i, s in enumerate([7, 7, 8, 7])]
        assert_agree(src, packets)


class TestCodegenArtifacts:
    def test_generated_source_is_python(self):
        from repro.jit.codegen import CompiledSourceEngine

        src = ("fun f(x : int) : int = x + 1\n"
               "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
               "(OnRemote(network, p); (f(ps), ss))")
        info = typecheck(parse(src))
        engine = CompiledSourceEngine(info, RecordingContext())
        compile(engine.generated_source, "<check>", "exec")  # re-parses
        assert "def F_f(" in engine.generated_source
        assert "def C_network_0(" in engine.generated_source

    @pytest.mark.parametrize("name", [*SHIPPED, "burst.planp"])
    def test_one_function_per_declaration(self, name):
        """The generated module holds one ``F_*`` per ``fun``, one
        ``C_*`` per channel overload, one ``I_*`` per ``initstate`` and
        nothing else — no second copy of a channel body."""
        from repro.jit.codegen import generate_source_artifact

        source = SHIPPED.get(name) or corpus_programs()[name]
        info = typecheck(parse(source))
        channels = info.all_channels()
        expected = ([f"F_{fun}" for fun in info.funs]
                    + [f"C_{d.name}_{i}" for i, d in enumerate(channels)]
                    + [f"I_{d.name}_{i}" for i, d in enumerate(channels)
                       if d.initstate is not None])
        generated = generate_source_artifact(info).generated_source
        defined = re.findall(r"^def (\w+)\(", generated, re.MULTILINE)
        assert sorted(defined) == sorted(expected)

    @pytest.mark.parametrize("name", [*SHIPPED, "burst.planp"])
    def test_templated_primitives_and_equality_are_inlined(self, name):
        """The source backend calls no primitive registered with an
        ``inline=`` template and no ``values_equal``: header reads are
        attribute loads, ``=`` is ``==``."""
        from repro.interp.primitives import PRIMITIVES
        from repro.jit.codegen import generate_source_artifact

        source = SHIPPED.get(name) or corpus_programs()[name]
        generated = generate_source_artifact(
            typecheck(parse(source))).generated_source
        assert "values_equal(" not in generated
        called = set(re.findall(r"\bP_(\w+)\(", generated))
        assert not {prim for prim in called
                    if PRIMITIVES[prim].inline is not None}
        if name in ("http_gateway_asp", "audio_router_asp"):
            # the two programs the paper's figures 6 and 8 run do read
            # headers, so the pin is not vacuous
            assert ".dst_port" in generated and ".dst)" in generated

    def test_once_bound_locals_are_read_in_place(self):
        """A name one ``let`` binds, shadowing no parameter, is written
        once before any read, so generated code reads ``L_x`` where it
        is used: the gateway module has no ``_tN = L_x`` move for it."""
        from collections import Counter

        from repro.lang import ast
        from repro.jit.codegen import generate_source_artifact

        info = typecheck(parse(SHIPPED["http_gateway_asp"]))
        bound = Counter(b.name for decl in info.all_channels()
                        for node in ast.walk(decl.body)
                        if type(node) is ast.Let for b in node.bindings)
        once = {name for name, n in bound.items() if n == 1}
        generated = generate_source_artifact(info).generated_source
        moved = set(re.findall(r"^\s*_t\d+ = L_(\w+)$", generated,
                               re.MULTILINE))
        assert {"iph", "tcp", "key", "bound"} <= once
        assert re.search(r"_t\d+ = \(L_tcp\.dst_port\)", generated)
        assert not moved & once, moved & once
        # ``con`` is bound in two sibling branches: still pinned
        assert moved == {"con"}

    SHADOWING = {
        # a let shadows the parameter its sibling operand reads first
        "param": "is (OnRemote(network, p);\n"
                 " (ps + (let val ps : int = ps * 10 + 1 in ps end), ss))",
        # two sibling operands bind the same name
        "siblings": "is (OnRemote(network, p);\n"
                    " ((let val x : int = ps + 1 in x end)\n"
                    "  + (let val x : int = ps + 2 in x end) * 3, ss))",
        # the same, in an ``initstate``: every run adds 1 + 2 * 3
        "initstate": "initstate (let val x : int = 1 in x end)\n"
                     "  + (let val x : int = 2 in x end) * 3\n"
                     "is (OnRemote(network, p); (ps + ss, ss))",
        # a let shadows the packet parameter itself
        "packet": "is (let val n : int = blobLen(#3 p)\n"
                  "     val p : ip*tcp*blob = (#1 p, #2 p, "
                  "blobCat(#3 p, #3 p))\n"
                  " in (OnRemote(network, p); "
                  "(ps + n + blobLen(#3 p), ss)) end)",
    }

    @pytest.mark.parametrize("case", sorted(SHADOWING))
    def test_shadowing_agrees_with_the_interpreter(self, case):
        """Through ``run_channel`` on every backend, and through the
        serial runs and batch folds the fuzz oracle drives."""
        from repro.fuzz import PacketSpec, compare_all

        src = ("channel network(ps : int, ss : int, p : ip*tcp*blob)\n"
               + self.SHADOWING[case])
        assert_agree(src, [tcp_packet_value()] * 3)
        specs = [PacketSpec(payload=bytes(n)) for n in (0, 1, 2, 5, 3)]
        result = compare_all(typecheck(parse(src)), specs)
        assert result.ok, result.divergences
        assert result.reference.outcomes == ("ok",) * len(specs)

    def test_prime_identifiers_mangled(self):
        src = ("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
               "(let val x' : int = ps + 1 in "
               "(OnRemote(network, p); (x', ss)) end)")
        assert_agree(src, [tcp_packet_value()])

