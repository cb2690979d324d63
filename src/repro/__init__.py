"""PLAN-P: adapting distributed applications with application-specific
protocols on extensible networks.

A reproduction of Thibault, Marant & Muller, "Adapting Distributed
Applications Using Extensible Networks" (ICDCS 1999 / INRIA RR-3484).

Package map:

* :mod:`repro.lang` — the PLAN-P language front end;
* :mod:`repro.interp` — values, primitives, the portable interpreter;
* :mod:`repro.jit` — the JIT generated from the interpreter;
* :mod:`repro.analysis` — the four install-time safety analyses;
* :mod:`repro.net` — the deterministic network simulator;
* :mod:`repro.runtime` — the IP/PLAN-P layer, deployment, lifecycle;
* :mod:`repro.asps` — the eleven shipped ASP templates (Figure 3's five
  and six more);
* :mod:`repro.apps` — the audio / HTTP / MPEG / image applications;
* :mod:`repro.experiments` — experiment helpers (Figure 3 table, scale
  ring, upgrade, web and chaos drills, micro-benchmarks);
* :mod:`repro.harness` — the scenario registry, runner and result store;
* :mod:`repro.obs` — events and metrics;
* :mod:`repro.fuzz` — differential fuzzing of the engines;
* :mod:`repro.tools` — the ``planpc``, ``runx``, ``obsdump`` and
  ``fuzzx`` command lines.

The ``analysis``, ``apps.audio``, ``apps.http``, ``experiments``,
``jit``, ``net`` and ``runtime`` packages resolve their names on first
access (:mod:`repro._lazy`), so an import loads only what its importer
uses.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
