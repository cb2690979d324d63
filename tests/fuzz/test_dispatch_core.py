"""The oracle drives the shipped dispatch core — and that is checkable.

* the core is pure (no node, simulator, observability or lifecycle
  import), which is what lets the oracle drive it off-node;
* the oracle and the layer group a burst the same way;
* a real :class:`PlanPLayer` on a network, running the closure
  engine's fold, and the oracle's batch-mode trace agree on every
  corpus case and on generated programs;
* non-vacuity: two mutants injected into the core's batch tier are
  caught by ``compare_all``, minimized, and gone with the mutant.
"""

import ast
import inspect
import random
import re
import textwrap
from pathlib import Path

import pytest

from repro.fuzz import (compare_all, gen_stream, load_case, make_case,
                        minimize_case, run_case, run_trace)
from repro.fuzz.grammar import gen_program
from repro.fuzz.oracle import CONTEXT_SEED, canon
from repro.fuzz.replay import case_specs
from repro.fuzz.streams import PacketSpec
from repro.lang import parse, typecheck
from repro.lang.errors import PlanPRuntimeError
from repro.net import Network
from repro.runtime import PlanPLayer, dispatch
from repro.runtime.dispatch import DispatchCore, group_runs

CORPUS = Path(__file__).parent / "corpus"

FORWARD_UDP = """\
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (OnRemote(network, p); (ps + 1, ss))
"""

#: Raises DivideByZero on (and only on) an empty payload; the division
#: guards OnRemote, so the faulting row emits nothing.
FAULTING = """\
channel network(ps : int, ss : unit, p : ip*tcp*blob) is
  (let val q : int = ps / blobLen(#3 p) in
     (OnRemote(network, p); (ps + q + 1, ss)) end)
"""


def test_core_imports_nothing_that_needs_a_node():
    banned = ("repro.net.node", "repro.net.sim", "repro.obs",
              "repro.runtime.lifecycle")
    tree = ast.parse(Path(dispatch.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # dispatch.py is repro/runtime/dispatch.py: level 1 is
            # repro.runtime, level 2 is repro
            base = {0: "", 1: "repro.runtime.", 2: "repro."}[node.level]
            module = base + (node.module or "")
            imported.append(module.rstrip("."))
            imported += [f"{module.rstrip('.')}.{alias.name}"
                         for alias in node.names]
    assert imported
    for name in imported:
        assert not any(name == b or name.startswith(b + ".")
                       for b in banned), name


def router_between():
    net = Network(seed=5)
    a = net.add_host("a")
    r = net.add_router("r")
    b = net.add_host("b")
    net.link(a, r)
    net.link(r, b)
    net.finalize()
    return net, r, PlanPLayer(r)


def burst(net, router, specs):
    """The whole stream arrives at the router in one simulator event."""
    packets = [spec.to_packet() for spec in specs]
    net.sim.schedule(0.0, lambda: [router.receive(p, None)
                                   for p in packets])
    net.run()


def test_mixed_length_burst_is_one_run_in_layer_and_oracle(monkeypatch):
    """Four ``ip*udp*blob`` datagrams of 3/9/64/200 bytes hit the same
    overload, so they are one 4-row run — in the layer's drain and in
    the oracle's batch mode alike."""
    specs = [PacketSpec(transport="udp", payload=bytes(n))
             for n in (3, 9, 64, 200)]
    runs = []
    real = DispatchCore.run

    def counting(self, packets, *args):
        runs.append(len(packets))
        return real(self, packets, *args)

    monkeypatch.setattr(DispatchCore, "run", counting)
    net, r, layer = router_between()
    layer.install(FORWARD_UDP, backend="closure")
    burst(net, r, specs)
    assert runs == [4]
    assert layer.stats.fastpath_batches == 1
    assert layer.stats.batched_packets == 4

    del runs[:]
    trace = run_trace(typecheck(parse(FORWARD_UDP)), "closure", "batch",
                      specs)
    assert runs == [4]
    assert trace.outcomes == ("ok",) * 4


# -- the layer and the oracle agree, through the network ----------------------

#: primitives whose value depends on which host runs them: the node's
#: own address and its link monitors.  ``random`` is not one — the
#: router's stream is seeded as the oracle's context is — nor is
#: ``getTime``: both sides run at time 0.
_HOST_BOUND = re.compile(r"\b(thisHost|linkLoad|linkBandwidth|queueLen)\(")


def _grammar_cases(count=51):
    for seed in range(count):
        source = gen_program(random.Random(seed))
        specs = gen_stream(random.Random(seed), typecheck(parse(source)),
                           length=16)
        yield pytest.param(source, specs, id=f"seed{seed}")


def _corpus_cases():
    for path in sorted(CORPUS.glob("*.json")):
        case = load_case(path)
        yield pytest.param(case["program"], case_specs(case), id=path.stem)


@pytest.mark.parametrize("source,specs",
                         [*_corpus_cases(), *_grammar_cases()])
def test_layer_agrees_with_oracle_batch_trace(source, specs):
    net, r, layer = router_between()
    r.entropy.seed(CONTEXT_SEED)  # the stream the oracle's context draws
    info = typecheck(parse(source))
    try:
        layer.install(source, backend="closure", verify=False)
    except PlanPRuntimeError as err:
        # a val raised: the oracle's engine refuses the program alike
        trace = run_trace(info, "closure", "batch", specs)
        assert trace.outcomes == (f"install:{err.exception_name}",)
        assert layer.loaded is None
        return
    channels = layer.loaded.info.all_channels()
    burst(net, r, specs)
    # the layer folded every run of two or more among the packets it
    # took (the ones standard IP took do not split its runs) — one at
    # least, unless the stream is a single packet
    hits = [hit for hit in map(layer.core.lookup,
                               (spec.to_packet() for spec in specs))
            if hit is not None]
    runs = sum(1 for i, j in group_runs(hits, layer.batch_size)
               if j - i > 1)
    assert layer.stats.fastpath_batches == runs
    assert runs > 0 or len(specs) == 1

    trace = run_trace(info, "closure", "batch", specs,
                      batch_size=layer.batch_size)
    assert trace.crash is None
    if _HOST_BOUND.search(source):
        return  # its states depend on the host it runs on
    assert canon(layer.protocol_state) == trace.ps
    assert tuple(canon(layer.channel_states[id(d)])
                 for d in channels) == trace.states
    assert layer.stats.packets_processed == sum(
        1 for o in trace.outcomes if o != "pass")
    assert layer.stats.runtime_errors == sum(
        1 for o in trace.outcomes if o.startswith(("decode", "err:")))


# -- injection drill: the fuzzer bites the shipped core -----------------------


def _mutant(old: str, new: str):
    """``DispatchCore.run`` with one source-level change."""
    source = textwrap.dedent(inspect.getsource(DispatchCore.run))
    assert source.count(old) == 1, old
    namespace = dict(vars(dispatch))
    exec(compile(source.replace(old, new), dispatch.__file__, "exec"),
         namespace)
    return namespace["run"]


MUTANTS = {
    # a contained runtime error commits as if the faulted row had
    # returned (every FAULTING row adds at least one to ps)
    "fault-commits": ("self.protocol_state = fault.ps",
                      "self.protocol_state = fault.ps + 1"),
    # the resume after a BatchFault starts one row too far
    "resume-skips-a-row": ("start = row + 1", "start = row + 2"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_core_mutant_is_caught_and_minimized(name, monkeypatch):
    info = typecheck(parse(FAULTING))
    specs = [PacketSpec(payload=p) for p in
             (b"abc", b"xy", b"", b"tail", b"q", b"", b"rs", b"t")]
    assert compare_all(info, specs).ok

    monkeypatch.setattr(DispatchCore, "run", _mutant(*MUTANTS[name]))
    result = compare_all(info, specs)
    assert not result.ok
    # the one batch trace, the closure fold's, disagrees; serial runs
    # never batch
    assert [(d.backend, d.mode) for d in result.divergences] == [
        ("closure", "batch")]

    minimized, steps = minimize_case(make_case(FAULTING, specs))
    assert steps > 1
    assert len(minimized["packets"]) <= 3
    assert not run_case(minimized).ok

    monkeypatch.undo()
    assert run_case(minimized).ok


def test_one_packet_mutant_that_commits_a_faulted_row_is_caught(
        monkeypatch):
    """The one-packet call the layer makes for a packet on its own, and
    the oracle's serial mode makes for every packet, with a change that
    commits state for a row it reports as contained.  Serial traces all
    run the mutant — the reference's too — so the closure fold, which
    contains the same rows through ``BatchFault``, disagrees with it."""
    info = typecheck(parse(FAULTING))
    specs = [PacketSpec(payload=p) for p in
             (b"abc", b"xy", b"", b"tail", b"q", b"", b"rs", b"t")]
    assert compare_all(info, specs).ok

    source = textwrap.dedent(inspect.getsource(DispatchCore.run_one))
    old = 'return "runtime", err'
    assert source.count(old) == 1
    namespace = dict(vars(dispatch))
    exec(compile(source.replace(
        old, "self.protocol_state += 1; " + old), dispatch.__file__,
        "exec"), namespace)
    monkeypatch.setattr(DispatchCore, "run_one", namespace["run_one"])
    result = compare_all(info, specs)
    assert [(d.backend, d.mode, d.detail.split(":")[0])
            for d in result.divergences] == [("closure", "batch", "ps")]
