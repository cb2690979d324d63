"""End-to-end compilation pipeline, engine selection, and the
network-wide content-addressed program cache.

An *engine* executes channel invocations; all three share one interface
(duck-typed; see :class:`Engine`):

* ``"interpreter"`` — the portable AST walker (debugging, new primitives);
* ``"closure"``     — JIT backend 1, closure specialization;
* ``"source"``      — JIT backend 2, Python source + ``compile()``.

``load_program`` runs the full paper pipeline: parse → type check →
verify (the four safety analyses) → code generation.

The paper pays the front half of that pipeline once per *download*; a
deployment that pushes one ASP to N nodes therefore re-parses,
re-checks, re-verifies and partly re-compiles identical source N times.
:class:`ProgramCache` removes the redundancy: keyed by
``sha256(source)`` it shares the checked :class:`ProgramInfo` and the
verification verdict across nodes, and per ``(sha256, backend)`` it
shares whatever code-generation output is node-independent (the
``source`` backend's emitted module + bytecode; the whole ``closure``
engine when the program has no node-dependent globals).  Per-node work
shrinks to evaluating globals and instantiating engine state.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

from ..lang import ast, parse
from ..lang.errors import VerificationError
from ..lang.typechecker import ProgramInfo, typecheck
from ..interp.context import ExecutionContext, RecordingContext
from ..interp.interpreter import Interpreter
from ..obs import GLOBAL
from .codegen import CODEGEN_REV, CompiledSourceEngine, SourceArtifact, \
    generate_source_artifact
from .specializer import ClosureEngine

if TYPE_CHECKING:
    from ..analysis.verifier import VerificationReport
    from ..analysis.wire import WireSummary

BACKENDS = ("interpreter", "closure", "source")

#: The engine every install path uses unless told otherwise: the JIT
#: that inlines primitives (DESIGN §6 has the decision record).
DEFAULT_BACKEND = "source"


class Engine(Protocol):
    """What a node needs to run a downloaded program."""

    def initial_channel_state(self, decl: ast.ChannelDecl,
                              ctx: ExecutionContext) -> object: ...

    def run_channel(self, decl: ast.ChannelDecl, protocol_state: object,
                    channel_state: object, packet_value: tuple,
                    ctx: ExecutionContext) -> tuple[object, object]: ...


def make_engine(info: ProgramInfo, backend: str,
                ctx: ExecutionContext | None = None,
                artifact: object | None = None) -> Engine:
    """Instantiate an execution engine for a checked program.

    ``ctx`` is the node context used to evaluate top-level globals at
    install time; a :class:`RecordingContext` is used when omitted.
    ``artifact`` is an optional cached code-generation product from
    :meth:`ProgramCache.engine_artifact` for the same ``(info,
    backend)`` pair.
    """
    if ctx is None:
        ctx = RecordingContext()
    if backend == "interpreter":
        return Interpreter(info)
    if backend == "closure":
        if isinstance(artifact, ClosureEngine):
            # Node-independent program: the compiled engine is immutable
            # after construction and shareable as-is.
            return artifact
        return ClosureEngine(info, ctx)
    if backend == "source":
        src_artifact = artifact if isinstance(artifact, SourceArtifact) \
            else None
        return CompiledSourceEngine(info, ctx, artifact=src_artifact)
    raise ValueError(f"unknown backend {backend!r}; pick from {BACKENDS}")


@dataclass
class CacheStats:
    """Hit/miss counters for each cached pipeline stage, plus the number
    of per-node engine instantiations performed through the cache."""

    frontend_hits: int = 0
    frontend_misses: int = 0
    verify_hits: int = 0
    verify_misses: int = 0
    engine_hits: int = 0
    engine_misses: int = 0
    wire_hits: int = 0
    wire_misses: int = 0
    loads: int = 0

    @property
    def total_hits(self) -> int:
        return self.frontend_hits + self.verify_hits + self.engine_hits \
            + self.wire_hits

    @property
    def total_misses(self) -> int:
        return self.frontend_misses + self.verify_misses \
            + self.engine_misses + self.wire_misses

    def snapshot(self) -> "CacheStats":
        return dataclasses.replace(self)


class ProgramCache:
    """Content-addressed cache over the program-download pipeline.

    Entries are keyed by the SHA-256 of the source text, so identical
    programs shipped under different names or to different nodes share
    one front-end pass; diagnostics on shared entries carry the source
    name of the first download.  ``max_entries`` bounds each internal
    map (FIFO eviction); ``max_entries=0`` disables caching entirely.
    """

    def __init__(self, max_entries: int = 128):
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._frontend: dict[str, ProgramInfo] = {}
        self._reports: dict[str, "VerificationReport"] = {}
        self._artifacts: dict[tuple[str, str], object] = {}
        self._wire: dict[tuple[str, int], "WireSummary"] = {}

    @staticmethod
    def digest(source: str) -> str:
        return hashlib.sha256(source.encode("utf-8")).hexdigest()

    def clear(self) -> None:
        self._frontend.clear()
        self._reports.clear()
        self._artifacts.clear()
        self._wire.clear()
        self.stats = CacheStats()

    def _put(self, table: dict, key, value) -> None:
        if self.max_entries <= 0:
            return
        if key not in table and len(table) >= self.max_entries:
            table.pop(next(iter(table)))
        table[key] = value

    # -- cached stages ------------------------------------------------------------

    def frontend(self, source: str, source_name: str = "<planp>",
                 key: str | None = None) -> tuple[str, ProgramInfo]:
        """Parse + type check, memoized by content digest (``key``, when
        the caller has already taken it)."""
        if key is None:
            key = self.digest(source)
        info = self._frontend.get(key)
        if info is not None:
            self.stats.frontend_hits += 1
            return key, info
        self.stats.frontend_misses += 1
        with GLOBAL.metrics.span("jit.parse_ms"):
            program = parse(source, source_name)
        with GLOBAL.metrics.span("jit.typecheck_ms"):
            info = typecheck(program)
        self._put(self._frontend, key, info)
        return key, info

    def verification(self, key: str,
                     info: ProgramInfo) -> "VerificationReport":
        """The four-analysis report for a checked program, memoized.

        Verification is a property of the source alone, so both verdicts
        (pass and fail) are cached: a program rejected once is rejected
        everywhere without re-running the analyses.
        """
        report = self._reports.get(key)
        if report is not None:
            self.stats.verify_hits += 1
            return report
        self.stats.verify_misses += 1
        from ..analysis.verifier import verify_report

        with GLOBAL.metrics.span("jit.verify_ms"):
            report = verify_report(info)
        self._put(self._reports, key, report)
        return report

    def check_verified(self, key: str,
                       info: ProgramInfo) -> "VerificationReport":
        """The admission gate, and the only one: the passing report, or
        :class:`VerificationError` naming the first failed analysis.
        Every install path asks here, so the verdict is cached and a
        grant that relaxes an analysis has one place to land."""
        report = self.verification(key, info)
        if not report.passed:
            failure = report.failures[0]
            raise VerificationError(
                f"{info.program.source_name} rejected by {failure.name}: "
                f"{failure.detail}", analysis=failure.name)
        return report

    def wire(self, key: str, info: ProgramInfo) -> "WireSummary":
        """The program's per-channel wire summary, memoized.

        Like verification it is a property of the source alone; the
        entry is keyed with ``WIRE_REV`` so summaries derived by an
        older revision of the checker are keyed out.
        """
        from ..analysis.wire import WIRE_REV, wire_summary

        wkey = (key, WIRE_REV)
        summary = self._wire.get(wkey)
        if summary is not None:
            self.stats.wire_hits += 1
            return summary
        self.stats.wire_misses += 1
        with GLOBAL.metrics.span("jit.wire_ms"):
            summary = wire_summary(info)
        self._put(self._wire, wkey, summary)
        return summary

    def engine_artifact(self, key: str, info: ProgramInfo,
                        backend: str) -> object | None:
        """The shareable part of code generation for ``backend``.

        Returns ``None`` (and counts nothing) for backends with no
        node-independent product: the interpreter compiles nothing, and
        a ``closure`` program with top-level ``val``s embeds node state
        as constants, so it must be re-specialized per node.
        """
        if backend == "source":
            build = lambda: generate_source_artifact(info)  # noqa: E731
        elif backend == "closure" and not info.program.vals:
            build = lambda: ClosureEngine(info, RecordingContext())  # noqa: E731
        else:
            return None
        # CODEGEN_REV keys out artifacts emitted by an older generator
        akey = (key, backend, CODEGEN_REV)
        artifact = self._artifacts.get(akey)
        if artifact is not None:
            self.stats.engine_hits += 1
            return artifact
        self.stats.engine_misses += 1
        artifact = build()
        self._put(self._artifacts, akey, artifact)
        return artifact


#: The process-wide cache every download path goes through.  Replaceable
#: (e.g. with ``ProgramCache(max_entries=0)``) to disable caching.
PROGRAM_CACHE = ProgramCache()


def _cache_stats() -> dict[str, int]:
    # Looked up at call time, so a rebound PROGRAM_CACHE is the one
    # snapshotted.
    return dataclasses.asdict(PROGRAM_CACHE.stats)


GLOBAL.metrics.register("program_cache", _cache_stats)


@dataclass
class LoadedProgram:
    """A verified, compiled program plus its compile-time metrics."""

    info: ProgramInfo
    engine: Engine
    backend: str
    codegen_ms: float
    source_lines: int
    #: content digest of the source (the program cache key)
    source_sha: str = ""
    #: did this load reuse any cached pipeline stage?
    cache_hit: bool = False
    #: the program text itself — kept so the lifecycle manager can
    #: re-install any generation on any node (rollback, half-open
    #: retrial) without a side channel back to the original pusher
    source: str = ""
    #: did this load run the four safety analyses?
    verified: bool = True
    #: the per-channel wire-protocol summary (packet shapes + emission
    #: topology) the lifecycle manager compares across generations
    #: before opening a canary window
    wire: "WireSummary | None" = None


def count_source_lines(source: str) -> int:
    """Non-blank, non-comment-only lines — the unit of Figure 3."""
    count = 0
    for line in source.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("--"):
            count += 1
    return count


def load_program(source: str, *, backend: str = DEFAULT_BACKEND,
                 verify: bool = True,
                 ctx: ExecutionContext | None = None,
                 source_name: str = "<planp>",
                 cache: ProgramCache | None = None,
                 key: str | None = None,
                 source_lines: int | None = None) -> LoadedProgram:
    """The full download path of the paper's run-time system.

    Raises :class:`repro.lang.errors.VerificationError` if any of the four
    safety analyses rejects the program (late checking, §2.1), unless
    ``verify=False`` (the authenticated-privileged-user escape hatch).

    Downloads are content-addressed: identical source already seen by
    ``cache`` (default: the process-wide :data:`PROGRAM_CACHE`) skips
    parsing, type checking, verification, and the node-independent part
    of code generation; only per-node engine instantiation remains.
    A caller that loads one source on many nodes passes the digest
    (``key``) and ``count_source_lines`` result it already has.
    """
    cache = PROGRAM_CACHE if cache is None else cache
    before = cache.stats.total_hits
    key, info = cache.frontend(source, source_name, key)
    if verify:
        cache.check_verified(key, info)
    if source_lines is None:
        source_lines = count_source_lines(source)
    with GLOBAL.metrics.span("jit.codegen_ms") as timer:
        artifact = cache.engine_artifact(key, info, backend)
        engine = make_engine(info, backend, ctx, artifact=artifact)
    wire = cache.wire(key, info)
    cache.stats.loads += 1
    hit = cache.stats.total_hits > before
    GLOBAL.events.emit("jit", sha=key[:12], backend=backend,
                       codegen_ms=round(timer.elapsed_ms, 3),
                       cache_hit=hit, verified=verify)
    return LoadedProgram(info=info, engine=engine, backend=backend,
                         codegen_ms=timer.elapsed_ms,
                         source_lines=source_lines,
                         source_sha=key,
                         cache_hit=hit,
                         source=source,
                         verified=verify,
                         wire=wire)
