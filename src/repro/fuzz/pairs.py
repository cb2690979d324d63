"""Paired-program differential validation of the wire-compat checker.

The rollout gate trusts :func:`repro.analysis.wire.check_compatible`
to predict, statically, whether two program generations can share a
wire.  This module keeps that trust honest: it generates *pairs* of
programs — a base generation plus a channel-signature mutation (field
retype, overload add/remove, tail toggle, or an unrelated rewrite) —
and differentially validates the checker's verdict against an actual
packet exchange.

The exchange oracle (:class:`_WireView`) reads each probe through the
shipped :class:`~repro.runtime.dispatch.DispatchCore` classification —
what a mixed fleet observes at the dispatch boundary — and the real
codec decode.  Two generations
*diverge* when some probe packet is read differently — decoded to
different values, decoded by one and passed to standard IP by the
other, or contained as a decode error on one side only.  Probes follow
the fleet's traffic model: untagged ``network`` packets always exist;
tagged packets exist only for channels some generation emits to.

The verdict lattice maps onto the exchange like this:

* ``INCOMPATIBLE`` with no witnessed divergence — a *conservative
  reject*; counted, acceptable (the probe set is finite).
* ``COMPATIBLE``/``DEGRADED`` with a witnessed divergence — a **false
  accept**: the gate would have let a protocol break roll out.  Every
  one is a finding; minimized cases go under
  ``tests/fuzz/corpus/wire/``.

``checker=`` is injectable so the test suite can prove the harness
actually catches a weakened checker instead of vacuously passing.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..analysis.wire import check_compatible, wire_summary
from ..lang import parse, typecheck
from ..obs import GLOBAL
from ..runtime import codec
from ..runtime.dispatch import DispatchCore
from .grammar import PACKET_TYPES, gen_program
from .oracle import _short, canon
from .replay import case_specs, ddmin
from .runner import Report, derive_seed, drive, file_finding
from .streams import PacketSpec, _spec_for

WIRE_CASE_KIND = "planp-wire-case"
WIRE_CASE_VERSION = 1

#: signature-mutation view substitutions
_SAME_WIDTH = {"int": "host", "host": "int", "char": "bool",
               "bool": "char"}
_CROSS_WIDTH = {"int": "char", "host": "bool", "char": "int",
                "bool": "host"}
_TAIL_SWAP = {"blob": "string", "string": "blob"}


# ---------------------------------------------------------------------------
# Pair generation: base program + channel-signature mutation
# ---------------------------------------------------------------------------


def _split_packet_type(pt: str) -> tuple[list[str], list[str]]:
    """``(header components, payload view names)`` of a packet type."""
    comps = pt.split("*")
    i = 1
    if i < len(comps) and comps[i] in ("tcp", "udp"):
        i += 1
    return comps[:i], comps[i:]


def _mutate_packet_type(rng: random.Random, pt: str) -> str | None:
    """One signature mutation of one packet type; ``None`` when the
    drawn mutation kind does not apply to this layout."""
    head, views = _split_packet_type(pt)
    kind = rng.choice(("retype-same-width", "retype-cross-width",
                       "retype-tail", "tail-toggle"))
    if kind in ("retype-same-width", "retype-cross-width"):
        table = (_SAME_WIDTH if kind == "retype-same-width"
                 else _CROSS_WIDTH)
        idxs = [i for i, v in enumerate(views) if v in table]
        if not idxs:
            return None
        i = rng.choice(idxs)
        views[i] = table[views[i]]
    elif kind == "retype-tail":
        if not views or views[-1] not in _TAIL_SWAP:
            return None
        views[-1] = _TAIL_SWAP[views[-1]]
    else:  # tail-toggle: drop a trailing tail, or grow one
        if views and views[-1] in ("blob", "string"):
            views = views[:-1]
        else:
            views = views + [rng.choice(("blob", "string"))]
        if not views and len(head) == 1:
            return None  # bare "ip" is not a packet tuple
    return "*".join(head + views)


def mutate_overloads(rng: random.Random,
                     overloads: list[str]) -> tuple[list[str], str]:
    """Mutate a network-channel overload list the way real upgrades
    do: retype a field, toggle a tail, add or drop an overload — or
    change nothing (``identity``), which pins the checker's
    compatible-verdict path.  Returns ``(mutated list, description)``;
    the mutated list stays duplicate-free so it remains a valid
    overload set."""
    overloads = list(overloads)
    for _ in range(16):
        kind = rng.choice(("signature", "signature", "signature",
                           "overload-add", "overload-drop", "identity"))
        if kind == "identity":
            return list(overloads), "identity"
        if kind == "overload-add":
            fresh = [pt for pt in PACKET_TYPES if pt not in overloads]
            if not fresh:
                continue
            pt = rng.choice(fresh)
            return overloads + [pt], f"overload-add {pt}"
        if kind == "overload-drop":
            if len(overloads) < 2:
                continue
            i = rng.randrange(len(overloads))
            return (overloads[:i] + overloads[i + 1:],
                    f"overload-drop {overloads[i]}")
        i = rng.randrange(len(overloads))
        new_pt = _mutate_packet_type(rng, overloads[i])
        if new_pt is None or new_pt in overloads:
            continue
        mutated = list(overloads)
        mutated[i] = new_pt
        return mutated, f"retype {overloads[i]} -> {new_pt}"
    return list(overloads), "identity"


def gen_pair(rng: random.Random) -> tuple[str, str, str]:
    """``(source_a, source_b, mutation description)`` — two program
    generations related by one signature mutation.  Generation B
    usually keeps A's body seed (a realistic upgrade: same logic under
    a changed signature), sometimes redraws it (a rewrite — exercises
    emission-topology deltas like an aux channel appearing)."""
    overloads_a = rng.sample(PACKET_TYPES, rng.randint(1, 3))
    overloads_b, mutation = mutate_overloads(rng, overloads_a)
    body_seed = rng.randrange(1 << 31)
    seed_b = body_seed if rng.random() < 0.7 else rng.randrange(1 << 31)
    source_a = gen_program(random.Random(body_seed),
                           overloads=overloads_a)
    source_b = gen_program(random.Random(seed_b), overloads=overloads_b)
    return source_a, source_b, mutation


# ---------------------------------------------------------------------------
# The exchange oracle: what each generation reads off the shared wire
# ---------------------------------------------------------------------------


class _WireView:
    """One generation's read of the wire: the dispatch core's
    classification plus the overload's decoder, nothing else (no engine
    runs, so the core holds none)."""

    def __init__(self, info):
        self.core = DispatchCore(info.all_channels())

    def read(self, spec: PacketSpec) -> tuple:
        packet = spec.to_packet()
        hit = self.core.lookup(packet)
        if hit is None:
            return ("pass",)  # standard IP passthrough
        try:
            return ("decoded", canon(hit.plan.decode(packet)))
        except codec.CodecError:
            # Contained identically on any node; the message text is
            # not wire-observable.
            return ("decode-error",)


#: random probes per live channel overload (each also sent one byte
#: longer and one byte shorter), and the minimizer's oracle-call budget
PROBES_PER_OVERLOAD = 3
MINIMIZE_STEPS = 200


def pair_specs(rng: random.Random, info_a, info_b,
               live_tags: set[str]) -> list[PacketSpec]:
    """Probe packets for every live channel overload of both
    generations, plus admission-boundary variants (one byte longer /
    shorter) so tail toggles and fixed-size shifts get witnessed at
    the exact lengths where dispatch flips."""
    specs: list[PacketSpec] = []
    for info in (info_a, info_b):
        for name, decls in info.channels.items():
            tag = None if name == "network" else name
            if tag is not None and tag not in live_tags:
                continue  # dead tagged channel: no emitter, no packets
            for decl in decls:
                if codec.dispatch_plan(decl.packet_type) is None:
                    continue
                for _ in range(PROBES_PER_OVERLOAD):
                    spec = _spec_for(rng, decl, tag)
                    specs.append(spec)
                    specs.append(replace(
                        spec, payload=spec.payload + b"\x00"))
                    if spec.payload:
                        specs.append(replace(
                            spec, payload=spec.payload[:-1]))
    return specs


def exchange_divergences(info_a, info_b,
                         specs: list[PacketSpec]) -> list[str]:
    """Read every probe through both generations; one human-readable
    line per packet the generations disagree on."""
    view_a, view_b = _WireView(info_a), _WireView(info_b)
    out: list[str] = []
    for i, spec in enumerate(specs):
        read_a, read_b = view_a.read(spec), view_b.read(spec)
        if read_a != read_b:
            out.append(
                f"packet[{i}] ({spec.transport}, tag={spec.channel!r}, "
                f"{len(spec.payload)}B): {_short(read_a, 120)} != "
                f"{_short(read_b, 120)}")
    return out


# ---------------------------------------------------------------------------
# Wire case files (the corpus/replay protocol for pair findings)
# ---------------------------------------------------------------------------


def make_wire_case(source_a: str, source_b: str,
                   specs: list[PacketSpec], *, seed: int = 0,
                   mutation: str = "", note: str = "") -> dict:
    return {
        "version": WIRE_CASE_VERSION,
        "kind": WIRE_CASE_KIND,
        "seed": seed,
        "mutation": mutation,
        "note": note,
        "program_a": source_a,
        "program_b": source_b,
        "packets": [s.to_dict() for s in specs],
    }


def load_wire_case(path: str | Path) -> dict:
    case = json.loads(Path(path).read_text())
    if case.get("kind") != WIRE_CASE_KIND:
        raise ValueError(f"{path} is not a {WIRE_CASE_KIND} file")
    return case


def run_wire_case(case: dict) -> tuple[object, list[str]]:
    """Re-evaluate a wire case: ``(CompatReport, divergences)``.

    A healthy committed case still witnesses a divergence AND the
    checker flags the pair — i.e. the false accept it once was stays
    fixed.
    """
    info_a = typecheck(parse(case["program_a"]))
    info_b = typecheck(parse(case["program_b"]))
    report = check_compatible(wire_summary(info_a),
                              wire_summary(info_b))
    return report, exchange_divergences(info_a, info_b, case_specs(case))


def minimize_wire_case(case: dict) -> tuple[dict, int]:
    """:func:`~repro.fuzz.replay.ddmin` the packet list while a
    divergence persists (the checker verdict depends only on the
    programs, so only the exchange needs re-running)."""
    info_a = typecheck(parse(case["program_a"]))
    info_b = typecheck(parse(case["program_b"]))
    return ddmin(case, lambda specs: bool(
        exchange_divergences(info_a, info_b, specs)), MINIMIZE_STEPS)


# ---------------------------------------------------------------------------
# The campaign
# ---------------------------------------------------------------------------


@dataclass
class PairFinding:
    """One false accept: checker said rollable, the wire disagreed."""

    pair_seed: int
    mutation: str
    verdict: str
    detail: str
    case_path: str | None = None
    minimized_packets: int = 0


@dataclass
class PairReport(Report):
    seed: int
    elapsed_s: float = 0.0
    pairs: int = 0
    compatible: int = 0
    degraded: int = 0
    incompatible: int = 0
    divergent: int = 0
    false_accepts: int = 0
    conservative_rejects: int = 0
    minimizer_steps: int = 0
    findings: list[PairFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.false_accepts == 0


def run_pair_campaign(seed: int, *, budget_s: float = 60.0,
                      min_pairs: int = 150,
                      max_pairs: int | None = None,
                      out_dir: str | Path | None = None,
                      minimize: bool = True,
                      checker=check_compatible) -> PairReport:
    """Hunt for wire-compat false accepts under
    :func:`repro.fuzz.runner.drive`'s stopping rule, one pair per step.

    ``out_dir`` receives one minimized wire-case file per finding;
    ``checker`` is the verdict function under test.
    """
    obs = GLOBAL
    metrics = obs.metrics
    c_pairs = metrics.counter("fuzz.wire_pairs")
    c_divergent = metrics.counter("fuzz.wire_divergent")
    c_false = metrics.counter("fuzz.false_accepts")

    report = PairReport(seed=seed)
    out = Path(out_dir) if out_dir is not None else None

    def step(index: int) -> None:
        pair_seed = derive_seed(seed, "wire-pair", index)
        rng = random.Random(pair_seed)
        source_a, source_b, mutation = gen_pair(rng)
        info_a = typecheck(parse(source_a))
        info_b = typecheck(parse(source_b))
        summary_a = wire_summary(info_a)
        summary_b = wire_summary(info_b)
        verdict_report = checker(summary_a, summary_b)
        live_tags = summary_a.emitted_to() | summary_b.emitted_to()
        specs = pair_specs(rng, info_a, info_b, live_tags)
        divergences = exchange_divergences(info_a, info_b, specs)
        report.pairs += 1
        c_pairs.inc()
        verdict = str(verdict_report.verdict)
        if verdict == "compatible":
            report.compatible += 1
        elif verdict == "degraded":
            report.degraded += 1
        else:
            report.incompatible += 1
        if divergences:
            report.divergent += 1
            c_divergent.inc()
        if divergences and verdict_report.ok:
            report.false_accepts += 1
            c_false.inc()
            detail = (f"mutation [{mutation}] judged {verdict} but "
                      f"{len(divergences)} probe(s) diverge; first: "
                      f"{divergences[0]}")
            file_finding(
                report,
                PairFinding(pair_seed=pair_seed, mutation=mutation,
                            verdict=verdict, detail=detail),
                make_wire_case(source_a, source_b, specs, seed=seed,
                               mutation=mutation, note=detail),
                minimizer=minimize_wire_case if minimize else None,
                path=out and out / f"wire-{pair_seed:016x}.json",
                obs=obs, reason="false-accept")
        elif not divergences and not verdict_report.ok:
            report.conservative_rejects += 1

    drive(report, step, obs=obs, budget_s=budget_s, min_pairs=min_pairs,
          max_pairs=max_pairs)
    return report
