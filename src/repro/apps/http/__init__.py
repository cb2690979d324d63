"""Extensible HTTP server with load balancing (paper 3.2).

Names resolve on first access (:mod:`repro._lazy`)."""

from ..._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, globals(), {
    "client": ("CompletedRequest", "HttpClientWorker", "OpenLoopClient"),
    "cluster": ("ClusterManager", "HealthResponder"),
    "experiment": ("MODES", "HttpExperimentResult", "run_http_experiment"),
    "gateway_c": ("BuiltinGateway", "GatewayStats"),
    "server": ("HTTP_PORT", "HttpServer"),
    "trace": ("TimedRequest", "Trace", "TraceEntry", "flood_times",
              "generate_trace", "open_loop_arrivals"),
})
