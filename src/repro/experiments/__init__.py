"""Experiment helpers shared by the registry, tests and examples.

Names resolve on first access (:mod:`repro._lazy`)."""

from .._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, globals(), {
    "fig3": ("Fig3Row", "fig3_codegen_table"),
    "microbench": ("BRIDGE_ASP", "make_bridge_packets",
                   "run_engine_microbench"),
    "result": ("ExperimentResult", "deterministic_metrics", "jsonify"),
    "upgrade": ("UpgradeResult", "run_upgrade_experiment"),
    "web": ("ATTACKS", "WebResult", "run_web_experiment"),
})
