"""Grammar-based differential fuzzing for the PLAN-P stack.

The harness turns the repro's correctness story from "properties we
thought to write" into "an adversary that hunts for disagreement
continuously":

* :mod:`.grammar` — a seeded generator of well-typed PLAN-P programs
  covering the full typechecker-accepted AST surface, with a coverage
  self-check (:func:`check_grammar_coverage`) so new language
  constructs cannot silently go unfuzzed;
* :mod:`.streams` — an adversarial packet-stream generator: valid
  streams plus structure-aware mutations (truncations, stride-breaking
  lengths, oversized tails, bit-flips, extreme field values);
* :mod:`.oracle` — a differential execution oracle running every
  (program, stream) pair through all three engines in serial mode and
  through the closure engine's batch fold, plus the decode-containment
  fallback, asserting identical
  states, emissions, output, fault prefixes, and containment
  accounting;
* :mod:`.replay` — the deterministic case-file protocol and greedy
  minimizer: every divergence shrinks to a small committed regression
  case under ``tests/fuzz/corpus/``;
* :mod:`.runner` — bounded-time campaigns (the ``fuzzx`` CLI and the
  CI smoke step), emitting ``fuzz.*`` counters through
  :mod:`repro.obs`;
* :mod:`.pairs` — paired-program campaigns validating the
  wire-compatibility checker (:mod:`repro.analysis.wire`) against an
  actual packet exchange between two program generations: any false
  accept (checker says rollable, the wire diverges) is a finding.

Everything is driven by :class:`random.Random` seeded explicitly —
a campaign seed reproduces its exact programs, streams, and verdicts.
"""

from .grammar import (GrammarCoverageError, ast_inventory,
                      check_grammar_coverage, gen_program)
from .oracle import (DEFAULT_BACKENDS, CompareResult, Divergence, Trace,
                     compare_all, run_trace)
from .pairs import (WIRE_CASE_KIND, PairFinding, PairReport,
                    exchange_divergences, gen_pair, load_wire_case,
                    make_wire_case, minimize_wire_case, mutate_overloads,
                    run_pair_campaign, run_wire_case)
from .replay import (case_specs, load_case, make_case, minimize_case,
                     run_case, save_case)
from .runner import Finding, FuzzReport, derive_seed, run_campaign
from .streams import PacketSpec, gen_stream

__all__ = [
    "GrammarCoverageError", "ast_inventory", "check_grammar_coverage",
    "gen_program", "DEFAULT_BACKENDS", "CompareResult", "Divergence",
    "Trace", "compare_all", "run_trace", "case_specs", "load_case",
    "make_case", "minimize_case", "run_case", "save_case", "Finding",
    "FuzzReport", "derive_seed", "run_campaign", "PacketSpec",
    "gen_stream", "WIRE_CASE_KIND", "PairFinding", "PairReport",
    "exchange_divergences", "gen_pair", "load_wire_case",
    "make_wire_case", "minimize_wire_case", "mutate_overloads",
    "run_pair_campaign", "run_wire_case",
]
