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
re-checks, re-verifies and re-compiles identical source N times.
:class:`ProgramCache` removes the redundancy: keyed by
``sha256(source)`` it shares the checked :class:`ProgramInfo` and the
verification verdict across nodes, and per ``(sha256, backend)`` it
shares code generation under one rule: a program whose globals are
static (:attr:`ProgramInfo.static_globals`: no ``val`` calls anything)
compiles to one engine that every node runs, on every backend; a
program whose globals read the node gets an engine per node, the
``source`` backend's over a shared module and bytecode.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Protocol

from ..analysis.verifier import VerificationReport, verify_report
from ..analysis.wire import WIRE_REV, WireSummary, wire_summary
from ..lang import ast, parse
from ..lang.errors import VerificationError
from ..lang.typechecker import ProgramInfo, typecheck
from ..interp.context import ExecutionContext, RecordingContext
from ..interp.interpreter import Interpreter
from ..obs import GLOBAL
from .codegen import CODEGEN_REV, CompiledSourceEngine, SourceArtifact, \
    generate_source_artifact
from .specializer import ClosureEngine

BACKENDS = ("interpreter", "closure", "source")

#: The engine every install path uses unless told otherwise: the JIT
#: that inlines primitives (DESIGN §6 has the decision record).
DEFAULT_BACKEND = "source"


class Engine(Protocol):
    """What a node needs to run a downloaded program.

    An engine holds compiled code and the program's globals, never a
    node's protocol or channel state: the state is passed in and
    returned, and the node keeps it.  Its constructor takes a context
    and evaluates the program's top-level ``val``s there, once, in
    declaration order (every backend through
    :class:`~repro.interp.interpreter.Interpreter`); nothing evaluates
    them again — a rollback that restores the engine finds its globals
    as it left them.  A ``val`` that raises fails the construction, so
    the program is refused at install.  When the globals are static the
    context is immaterial and one engine serves every node
    (:meth:`ProgramCache.engine_artifact`); otherwise the engine is
    built for one node, against that node's context, and belongs to it.
    """

    def initial_channel_state(self, decl: ast.ChannelDecl,
                              ctx: ExecutionContext) -> object: ...

    def run_channel(self, decl: ast.ChannelDecl, protocol_state: object,
                    channel_state: object, packet_value: tuple,
                    ctx: ExecutionContext) -> tuple[object, object]: ...


def make_engine(info: ProgramInfo, backend: str,
                ctx: ExecutionContext | None = None,
                artifact: object | None = None) -> Engine:
    """An execution engine for a checked program.

    ``artifact`` is what :meth:`ProgramCache.engine_artifact` returned
    for the same ``(info, backend)`` pair: a static program's engine,
    which is returned as it is — every node runs that one object — or
    the ``source`` backend's shared module, which a new engine binds.
    Otherwise the engine is built here, for the node whose context
    ``ctx`` is (a :class:`RecordingContext` when omitted): its
    top-level ``val``s are evaluated against it.
    """
    if artifact is not None and not isinstance(artifact, SourceArtifact):
        return artifact  # type: ignore[return-value]
    if ctx is None:
        ctx = RecordingContext()
    return _build_engine(info, backend, ctx, artifact)


def _build_engine(info: ProgramInfo, backend: str, ctx: ExecutionContext,
                  artifact: SourceArtifact | None) -> Engine:
    if backend == "interpreter":
        return Interpreter(info, ctx)
    if backend == "closure":
        return ClosureEngine(info, ctx)
    if backend == "source":
        return CompiledSourceEngine(info, ctx, artifact=artifact)
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


#: entries each of the cache's maps holds before evicting its oldest
MAX_ENTRIES = 128


class ProgramCache:
    """Content-addressed cache over the program-download pipeline.

    Entries are keyed by the SHA-256 of the source text, so identical
    programs shipped under different names or to different nodes share
    one front-end pass; diagnostics on shared entries carry the source
    name of the first download.  Code generation is shared per
    ``(digest, backend)`` under one rule (:meth:`engine_artifact`): a
    program with static globals has one engine, whichever node asks.
    :data:`MAX_ENTRIES` bounds each internal map (FIFO eviction).
    """

    def __init__(self):
        self.stats = CacheStats()
        self._frontend: dict[str, ProgramInfo] = {}
        self._reports: dict[str, "VerificationReport"] = {}
        self._artifacts: dict[tuple[str, str], object] = {}
        self._wire: dict[tuple[str, int], "WireSummary"] = {}

    @staticmethod
    def digest(source: str) -> str:
        return hashlib.sha256(source.encode("utf-8")).hexdigest()

    def _put(self, table: dict, key, value) -> None:
        if key not in table and len(table) >= MAX_ENTRIES:
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
        info = typecheck(parse(source, source_name))
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
        wkey = (key, WIRE_REV)
        summary = self._wire.get(wkey)
        if summary is not None:
            self.stats.wire_hits += 1
            return summary
        self.stats.wire_misses += 1
        summary = wire_summary(info)
        self._put(self._wire, wkey, summary)
        return summary

    def engine_artifact(self, key: str, info: ProgramInfo,
                        backend: str) -> object | None:
        """The part of code generation for ``backend`` that every node
        can share, built on the first ask: for a program with static
        globals the engine itself (built against a
        :class:`RecordingContext` its ``val``s never read); otherwise
        the ``source`` backend's module and bytecode, which each node's
        engine binds over its own globals, and ``None`` (nothing
        counted) for the engines built whole per node.
        """
        if backend not in BACKENDS:
            return None
        if info.static_globals:
            build = lambda: _build_engine(  # noqa: E731
                info, backend, RecordingContext(), None)
        elif backend == "source":
            build = lambda: generate_source_artifact(info)  # noqa: E731
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


#: The process-wide cache every download path goes through.
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
    source_lines: int
    #: content digest of the source (the program cache key)
    source_sha: str
    #: did this load reuse any cached pipeline stage?
    cache_hit: bool
    #: the program text itself — kept so the lifecycle manager can
    #: re-install any generation on any node (rollback, half-open
    #: retrial) without a side channel back to the original pusher
    source: str
    #: did this load run the four safety analyses?
    verified: bool
    #: the per-channel wire-protocol summary (packet shapes + emission
    #: topology) the lifecycle manager compares across generations
    #: before opening a canary window
    wire: "WireSummary"


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
    parsing, type checking, verification and the shareable part of code
    generation — all of it when the globals are static, when the node
    gets the cached engine itself.
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
    artifact = cache.engine_artifact(key, info, backend)
    engine = make_engine(info, backend, ctx, artifact=artifact)
    wire = cache.wire(key, info)
    cache.stats.loads += 1
    return LoadedProgram(info=info, engine=engine, backend=backend,
                         source_lines=source_lines,
                         source_sha=key,
                         cache_hit=cache.stats.total_hits > before,
                         source=source,
                         verified=verify,
                         wire=wire)
