"""Every analysis result of every corpus program, pinned byte for byte.

The front end's speed work (a list path walker, per-function memos in
the delivery analysis, one walk per body) must not move a single
verdict, path, count or generated line.  ``analysis_golden.json`` holds,
for the shipped templates, ``corpus_programs()``, a seeded sample of the
fuzz grammar and one program past ``PATH_BUDGET``:

* ``verify_report(info).summary()`` and its three sub-reports;
* ``program_paths(info)``, every path of every overload in order;
* ``wire_summary(info)`` with its digest;
* the ``source`` backend's ``generated_source``.

The file was written by the analyses as they stood before that work.
Regenerate it only for a change that is meant to move one of these, and
say which::

    PYTHONPATH=src python -m tests.analysis.test_analysis_golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.paths import PATH_BUDGET, program_paths
from repro.analysis.verifier import verify_report
from repro.analysis.wire import wire_summary
from repro.jit.codegen import CODEGEN_REV, generate_source_artifact
from repro.lang import VerificationError, parse, typecheck
from tests.corpora import SHIPPED, corpus_programs, grammar_programs

GOLDEN = Path(__file__).with_name("analysis_golden.json")

#: Sixteen guards in a row: 2^16 paths, past PATH_BUDGET, so both path
#: consumers must refuse it with the budget's text.
BUDGET_OVERFLOW = (
    "channel network(ps : int, ss : int, p : ip * udp * blob) is\n"
    "  (" + "".join(
        f"(if ps = {i} then () else ());\n   "
        for i in range(16))
    + "OnRemote(network, p);\n   (ps, ss))\n")


def programs() -> dict[str, str]:
    found = {f"shipped:{name}": source for name, source in SHIPPED.items()}
    found.update({f"corpus:{name}": source
                  for name, source in corpus_programs().items()})
    found.update({f"grammar:{i}": source
                  for i, source in enumerate(grammar_programs(24, seed=30))})
    found["budget-overflow"] = BUDGET_OVERFLOW
    return found


def _paths(info) -> dict | str:
    try:
        paths = program_paths(info)
    except VerificationError as err:
        return f"refused: {err.message}"
    return {f"{name}/{i}": [
        {"eq": p.constraint.eq, "neq": sorted(p.constraint.neq),
         "dst_eq": str(p.constraint.dst_eq),
         "dst_neq": sorted(str(a) for a in p.constraint.dst_neq),
         "emissions": [[e.target, str(e.dst), str(e.port),
                        e.neighbor_bound, e.line] for e in p.emissions],
         "delivers": p.delivers, "drops": p.drops}
        for p in summaries] for (name, i), summaries in paths.items()}


def record(source: str) -> dict:
    """Everything the analyses and the source backend say about one
    program, as plain JSON data."""
    info = typecheck(parse(source))
    report = verify_report(info)
    term, deliv, dup = (report.global_termination, report.delivery,
                        report.duplication)
    wire = wire_summary(info)
    return {
        "summary": report.summary(),
        "global_termination": None if term is None else [
            term.states_explored, term.edges, term.rewrite_edges,
            term.emission_sites],
        "delivery": None if deliv is None else [
            deliv.channels_checked, deliv.exits_verified],
        "duplication": None if dup is None else [
            sorted(dup.multiplying_channels), dup.fixpoint_iterations,
            dup.max_emissions_per_path],
        "paths": _paths(info),
        "wire": [wire.digest, repr(wire)],
        # the node-independent artifact: a program whose val raises
        # has generated source but no engine
        "generated_source": generate_source_artifact(
            info).generated_source,
    }


PROGRAMS = programs()


def build() -> dict:
    return {"codegen_rev": CODEGEN_REV,
            "programs": {name: record(source)
                         for name, source in PROGRAMS.items()}}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_codegen_rev_unchanged(golden):
    assert CODEGEN_REV == golden["codegen_rev"] == 8


def test_same_programs(golden):
    assert sorted(golden["programs"]) == sorted(PROGRAMS)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_program_unchanged(golden, name):
    got = json.loads(json.dumps(record(PROGRAMS[name])))
    want = golden["programs"][name]
    for key in want:
        assert got[key] == want[key], f"{name}: {key} moved"


def test_budget_overflow_keeps_its_refusal(golden):
    entry = golden["programs"]["budget-overflow"]
    refusal = (f"path enumeration budget exceeded ({PATH_BUDGET} paths); "
               f"program rejected conservatively")
    assert entry["paths"] == f"refused: {refusal}"
    assert f"FAIL global-termination — {refusal}" in entry["summary"]
    assert f"FAIL duplication — {refusal}" in entry["summary"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(build(), indent=0, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
