"""ASP deployment management (paper §5's "protocol management").

``Deployment`` verifies a program once, then installs it on any number of
nodes — routers and end hosts alike.  The paper's run-time
specialization happens at download: per node when the program's globals
read the node, once for all of them when they are static.  Each install
returns a record with the verification report, so operators can audit
why a program was accepted or rejected.

All front-end work goes through the content-addressed
:class:`~repro.jit.pipeline.ProgramCache`: an N-node install parses,
type checks and verifies the source exactly once, and per node only the
node-dependent remainder of compilation runs (none, for static
globals: every node gets the one engine).  The record keeps the
cache hit/miss delta so operators can see the amortization.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.verifier import VerificationReport
from ..jit import pipeline
from ..jit.pipeline import DEFAULT_BACKEND
from ..net.node import Node
from .planp_layer import PlanPLayer


@dataclass
class DeploymentRecord:
    source_name: str
    nodes: list[str]
    backend: str
    verified: bool
    report: VerificationReport | None
    #: content digest of the deployed source (the program-cache key)
    source_sha: str = ""
    #: program-cache hits/misses incurred by this install
    cache_hits: int = 0
    cache_misses: int = 0


class Deployment:
    """Distributes ASPs across a simulated network."""

    def __init__(self, cache: pipeline.ProgramCache | None = None):
        self._cache = cache

    @property
    def cache(self) -> pipeline.ProgramCache:
        return self._cache if self._cache is not None \
            else pipeline.PROGRAM_CACHE

    def layer_of(self, node: Node) -> PlanPLayer:
        """The node's PLAN-P layer (created on first use)."""
        if node.planp is None:
            PlanPLayer(node)
        assert node.planp is not None
        return node.planp

    def install(self, source: str, nodes: list[Node], *,
                backend: str = DEFAULT_BACKEND, verify: bool = True,
                source_name: str = "<asp>") -> DeploymentRecord:
        """Verify once, install everywhere.

        Raises :class:`VerificationError` (without touching any node) if
        verification is requested and fails.
        """
        cache = self.cache
        before = cache.stats.snapshot()
        # Front-end once, centrally: a rejected program reaches no node.
        key, info = cache.frontend(source, source_name)
        report = cache.check_verified(key, info) if verify else None

        record = DeploymentRecord(source_name=source_name,
                                  nodes=[n.name for n in nodes],
                                  backend=backend, verified=verify,
                                  report=report, source_sha=key)
        source_lines = pipeline.count_source_lines(source)
        for node in nodes:
            layer = self.layer_of(node)
            # Each node asks the gate again; the verdict is cached, so
            # the analyses ran once and every stamp below is truthful.
            loaded = pipeline.load_program(
                source, backend=backend, verify=verify, ctx=layer,
                source_name=source_name, cache=cache, key=key,
                source_lines=source_lines)
            layer.install_loaded(loaded)
        after = cache.stats
        record.cache_hits = after.total_hits - before.total_hits
        record.cache_misses = after.total_misses - before.total_misses
        return record

    def uninstall(self, nodes: list[Node]) -> None:
        for node in nodes:
            if node.planp is not None:
                node.planp.uninstall()
