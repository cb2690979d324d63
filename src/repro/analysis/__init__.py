"""Static safety analyses for PLAN-P programs (paper §2.1).

Names resolve on first access (:mod:`repro._lazy`)."""

from .._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, globals(), {
    "delivery": ("DeliveryReport", "check_delivery"),
    "duplication": ("DuplicationReport", "check_duplication"),
    "effects": ("EffectWalk", "Effects"),
    "paths": ("PathSummary", "channel_paths", "program_paths"),
    "termination": ("GlobalTerminationReport", "check_global_termination",
                    "check_local_termination"),
    "verifier": ("ANALYSES", "AnalysisResult", "VerificationReport",
                 "verify_report"),
    "wire": ("WIRE_REV", "ChannelSummary", "CompatReport", "OverloadShape",
             "Reason", "Verdict", "WireSummary", "check_compatible",
             "wire_summary"),
})
