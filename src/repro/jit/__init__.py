"""JIT compilation for PLAN-P, generated from the interpreter.

Two backends reproduce the paper's Tempo-generated JIT:

* :class:`repro.jit.specializer.ClosureEngine` — closure specialization
  (the first Futamura projection, staged by hand);
* :class:`repro.jit.codegen.CompiledSourceEngine` — Python source
  emission compiled with ``compile()`` (the machine-code-template
  analogue).

Names resolve on first access (:mod:`repro._lazy`).
"""

from .._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, globals(), {
    "codegen": ("CompiledSourceEngine", "SourceArtifact"),
    "pipeline": ("BACKENDS", "DEFAULT_BACKEND", "PROGRAM_CACHE",
                 "CacheStats", "Engine", "LoadedProgram", "ProgramCache",
                 "count_source_lines", "load_program", "make_engine"),
    "specializer": ("ClosureEngine",),
})
