"""``planpc`` — the PLAN-P command-line front end.

The developer-facing face of the toolchain (the paper's workflow of
writing, checking and shipping ASPs, §2):

    python -m repro.tools.planpc check  program.planp
    python -m repro.tools.planpc verify program.planp
    python -m repro.tools.planpc compile program.planp --backend source
    python -m repro.tools.planpc fmt    program.planp
    python -m repro.tools.planpc bench  program.planp

* ``check``   — parse and type check; report the channels found.
* ``verify``  — run the four safety analyses, print the report,
  exit 1 on rejection.
* ``compile`` — time JIT code generation; with the source backend,
  ``--emit`` prints the generated Python; ``--stages`` prints what each
  stage of one cold download of the program cost.
* ``fmt``     — re-print the program from its AST (canonical form).
* ``bench``   — measure per-invocation cost of every execution engine
  on synthetic packets matching the first network channel.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..analysis.verifier import verify_report
from ..interp.values import default_value
from ..jit.pipeline import (BACKENDS, DEFAULT_BACKEND, ProgramCache,
                            count_source_lines, load_program, make_engine)
from ..lang import PlanPError, parse, typecheck
from ..lang.unparse import unparse
from ..obs import GLOBAL
from ..runtime import codec


def _load(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def cmd_check(args: argparse.Namespace) -> int:
    source = _load(args.program)
    info = typecheck(parse(source, args.program))
    print(f"{args.program}: OK ({count_source_lines(source)} lines)")
    for name, overloads in info.channels.items():
        for decl in overloads:
            print(f"  channel {name}({decl.protocol_state_type}, "
                  f"{decl.channel_state_type}, {decl.packet_type})")
    for name in info.funs:
        print(f"  fun {name}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    info = typecheck(parse(_load(args.program), args.program))
    report = verify_report(info)
    print(report.summary())
    if report.passed:
        print(f"{args.program}: ACCEPTED")
        return 0
    print(f"{args.program}: REJECTED")
    return 1


#: The download pipeline's stages and the span each one times into.
_STAGES = (("lex+parse", "jit.parse_ms"), ("typecheck", "jit.typecheck_ms"),
           ("verify", "jit.verify_ms"), ("wire", "jit.wire_ms"),
           ("codegen", "jit.codegen_ms"))


def cmd_compile(args: argparse.Namespace) -> int:
    spans = [(label, GLOBAL.metrics.histogram(name))
             for label, name in _STAGES]
    before = [span.total for _, span in spans]
    # A cache of its own, so every stage runs (once) and is timed.
    cache = ProgramCache()
    loaded = load_program(_load(args.program), backend=args.backend,
                          verify=False, source_name=args.program,
                          cache=cache)
    print(f"{args.program}: compiled with {args.backend} backend in "
          f"{loaded.codegen_ms:.2f} ms")
    if args.stages:
        cache.verification(loaded.source_sha, loaded.info)
        for (label, span), start in zip(spans, before):
            print(f"  {label:10s}{span.total - start:8.2f} ms")
    if args.emit:
        generated = getattr(loaded.engine, "generated_source", None)
        if generated is None:
            print("(--emit requires --backend source)", file=sys.stderr)
            return 2
        print(generated)
    return 0


def cmd_fmt(args: argparse.Namespace) -> int:
    program = parse(_load(args.program), args.program)
    sys.stdout.write(unparse(program))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from ..experiments.microbench import _NullContext
    from ..net.packet import IpHeader

    info = typecheck(parse(_load(args.program), args.program))
    decl = info.channel_overloads("network")[0] if \
        info.channel_overloads("network") else info.all_channels()[0]
    lay = codec.layout(decl.packet_type)  # type: ignore[arg-type]
    parts: list[object] = [IpHeader()]
    if lay.transport is not None:
        parts.append(lay.transport_cls(dst_port=80))
    parts.extend(default_value(view) for view in lay.views)
    packet = tuple(parts)

    print(f"{args.program}: {args.n} invocations per engine")
    for backend in BACKENDS:
        ctx = _NullContext()
        engine = make_engine(info, backend, ctx)
        ps = default_value(decl.protocol_state_type)
        ss = engine.initial_channel_state(decl, ctx)
        start = time.perf_counter()
        for _ in range(args.n):
            ps, ss = engine.run_channel(decl, ps, ss, packet, ctx)
        elapsed = time.perf_counter() - start
        print(f"  {backend:12s} {elapsed / args.n * 1e6:8.2f} us/pkt")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planpc", description="PLAN-P toolchain front end")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse and type check")
    p_check.add_argument("program")
    p_check.set_defaults(fn=cmd_check)

    p_verify = sub.add_parser("verify", help="run the safety analyses")
    p_verify.add_argument("program")
    p_verify.set_defaults(fn=cmd_verify)

    p_compile = sub.add_parser("compile", help="JIT compile")
    p_compile.add_argument("program")
    p_compile.add_argument("--backend", default=DEFAULT_BACKEND,
                           choices=BACKENDS)
    p_compile.add_argument("--emit", action="store_true",
                           help="print generated Python (source backend)")
    p_compile.add_argument("--stages", action="store_true",
                           help="print per-stage milliseconds")
    p_compile.set_defaults(fn=cmd_compile)

    p_fmt = sub.add_parser("fmt", help="canonical re-print")
    p_fmt.add_argument("program")
    p_fmt.set_defaults(fn=cmd_fmt)

    p_bench = sub.add_parser("bench", help="engine microbenchmark")
    p_bench.add_argument("program")
    p_bench.add_argument("-n", type=int, default=10_000)
    p_bench.set_defaults(fn=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as err:
        print(f"planpc: {err}", file=sys.stderr)
        return 2
    except PlanPError as err:
        print(f"planpc: {args.program}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
