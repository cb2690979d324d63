"""The PLAN-P run-time system: node layer, wire codec, deployment,
and the ASP lifecycle manager (staged rollout / quarantine / rollback)."""

from .codec import (CodecError, DispatchPlan, decode, dispatch_plan, encode,
                    make_decoder, matches, packet_views)
from .deployment import Deployment, DeploymentRecord
from .lifecycle import (BreakerState, CircuitBreaker, Generation,
                        LifecycleManager, LifecyclePolicy, NodeLifecycle,
                        Rollout, RolloutState)
from .netdeploy import DeploymentManager, DeploymentService, PushStatus
from .planp_layer import PlanPLayer, PlanPStats, ProgramSnapshot

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "CodecError",
    "Deployment",
    "DeploymentRecord",
    "DeploymentManager",
    "DeploymentService",
    "DispatchPlan",
    "Generation",
    "LifecycleManager",
    "LifecyclePolicy",
    "NodeLifecycle",
    "ProgramSnapshot",
    "PushStatus",
    "PlanPLayer",
    "PlanPStats",
    "Rollout",
    "RolloutState",
    "decode",
    "dispatch_plan",
    "encode",
    "make_decoder",
    "matches",
    "packet_views",
]
