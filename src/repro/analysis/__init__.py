"""Static safety analyses for PLAN-P programs (paper §2.1)."""

from .delivery import DeliveryReport, check_delivery
from .duplication import DuplicationReport, check_duplication
from .paths import PathSummary, channel_paths, program_paths
from .termination import (GlobalTerminationReport, check_global_termination,
                          check_local_termination)
from .verifier import (ANALYSES, AnalysisResult, VerificationReport,
                       verify_report)
from .wire import (WIRE_REV, ChannelSummary, CompatReport, OverloadShape,
                   Reason, Verdict, WireSummary, check_compatible,
                   wire_summary)

__all__ = [
    "ANALYSES",
    "AnalysisResult",
    "ChannelSummary",
    "CompatReport",
    "DeliveryReport",
    "DuplicationReport",
    "GlobalTerminationReport",
    "OverloadShape",
    "PathSummary",
    "Reason",
    "Verdict",
    "VerificationReport",
    "WIRE_REV",
    "WireSummary",
    "channel_paths",
    "check_compatible",
    "check_delivery",
    "check_duplication",
    "check_global_termination",
    "check_local_termination",
    "program_paths",
    "verify_report",
    "wire_summary",
]
