"""Experiment helpers shared by the registry, tests and examples."""

from .fig3 import Fig3Result, Fig3Row, fig3_codegen_table, format_fig3_table
from .microbench import (BRIDGE_ASP, MicrobenchResult, make_bridge_packets,
                         run_engine_microbench)
from .result import ExperimentResult, deterministic_metrics, jsonify
from .upgrade import UpgradeResult, run_upgrade_experiment
from .web import ATTACKS, WebResult, run_web_experiment

__all__ = [
    "ATTACKS",
    "BRIDGE_ASP",
    "ExperimentResult",
    "Fig3Result",
    "Fig3Row",
    "MicrobenchResult",
    "UpgradeResult",
    "WebResult",
    "deterministic_metrics",
    "fig3_codegen_table",
    "format_fig3_table",
    "jsonify",
    "make_bridge_packets",
    "run_engine_microbench",
    "run_upgrade_experiment",
    "run_web_experiment",
]
