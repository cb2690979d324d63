"""The PLAN-P run-time system: node layer, wire codec, deployment,
and the ASP lifecycle manager (staged rollout / quarantine / rollback).

Names resolve on first access (:mod:`repro._lazy`), so importing
``repro.runtime.deployment`` loads neither the lifecycle manager nor
network deployment."""

from .._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, globals(), {
    "codec": ("CodecError", "DispatchPlan", "decode", "dispatch_plan",
              "encode", "make_decoder", "matches", "packet_views"),
    "deployment": ("Deployment", "DeploymentRecord"),
    "lifecycle": ("BreakerState", "CircuitBreaker", "Generation",
                  "LifecycleManager", "LifecyclePolicy", "NodeLifecycle",
                  "Rollout", "RolloutState"),
    "netdeploy": ("DeploymentManager", "DeploymentService", "PushStatus"),
    "planp_layer": ("PlanPLayer", "PlanPStats", "ProgramSnapshot"),
})
